package nn

import (
	"encoding/gob"
	"fmt"
	"io"
)

// stateEntry is the serialized form of one parameter.
type stateEntry struct {
	Name string
	Rows int
	Cols int
	Data []float64
}

// SaveState writes a module's parameters to w in gob format, keyed by
// parameter name in declaration order.
func SaveState(w io.Writer, m Module) error {
	var entries []stateEntry
	for _, p := range m.Parameters() {
		entries = append(entries, stateEntry{
			Name: p.Name,
			Rows: p.Value.Rows,
			Cols: p.Value.Cols,
			Data: append([]float64(nil), p.Value.Data...),
		})
	}
	return gob.NewEncoder(w).Encode(entries)
}

// LoadState reads parameters written by SaveState into m. Parameters are
// matched positionally and validated by name and shape, so a model must
// be constructed with the same architecture before loading.
func LoadState(r io.Reader, m Module) error {
	var entries []stateEntry
	if err := gob.NewDecoder(r).Decode(&entries); err != nil {
		return fmt.Errorf("nn: decode state: %w", err)
	}
	params := m.Parameters()
	if len(entries) != len(params) {
		return fmt.Errorf("nn: state has %d parameters, model has %d", len(entries), len(params))
	}
	for i, e := range entries {
		p := params[i]
		if e.Name != p.Name {
			return fmt.Errorf("nn: parameter %d name mismatch: state %q vs model %q", i, e.Name, p.Name)
		}
		if e.Rows != p.Value.Rows || e.Cols != p.Value.Cols {
			return fmt.Errorf("nn: parameter %q shape mismatch: state %dx%d vs model %dx%d",
				e.Name, e.Rows, e.Cols, p.Value.Rows, p.Value.Cols)
		}
		copy(p.Value.Data, e.Data)
		p.Grad.Zero()
	}
	return nil
}
