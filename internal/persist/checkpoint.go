package persist

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"hash/crc32"
	"log"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"turbo/internal/behavior"
	"turbo/internal/graph"
)

// State is one full-state checkpoint: everything the BN server holds in
// memory, captured at an exact WAL position. A recovered process that
// restores State and replays WAL records with LSN > WALLSN is
// indistinguishable (up to float addition order in edge weights) from
// one that never crashed.
type State struct {
	// CapturedAt is the wall-clock capture time.
	CapturedAt time.Time
	// WALLSN is the last WAL record reflected in this state; replay
	// resumes at WALLSN+1.
	WALLSN uint64
	// NumEdgeTypes pins the graph's edge-type arity.
	NumEdgeTypes int
	// Nodes and Edges are the full graph (nodes sorted; edges sorted by
	// type, U, V; each undirected edge once with accumulated weight and
	// expiry).
	Nodes []graph.NodeID
	Edges []graph.Edge
	// NextEpochs is the builder's per-window scheduling cursor
	// (Algorithm 1 resumes window jobs exactly where it stopped).
	NextEpochs []time.Time
	// TxnUsers are users with a registered transaction (deposit-free
	// application), the prediction-eligible set.
	TxnUsers []behavior.UserID
	// Logs is the full behavior store: every ingested log, so this grows
	// with history. Nothing prunes the store. Statistical features are
	// cut at AppTime+24h, which can lie far behind the BN's window
	// horizon, so dropping old logs would change scores.
	Logs []behavior.Log
}

const (
	ckptMagic  = "TBCKPT01"
	ckptSuffix = ".ckpt"
)

// ckptName renders the canonical checkpoint file name for a WAL LSN.
func ckptName(lsn uint64) string { return fmt.Sprintf("ckpt-%016x%s", lsn, ckptSuffix) }

// ckptMeta is one on-disk checkpoint file.
type ckptMeta struct {
	path string
	lsn  uint64
}

// listCheckpoints returns the directory's checkpoints sorted by LSN
// ascending.
func listCheckpoints(dir string) ([]ckptMeta, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	var cks []ckptMeta
	for _, e := range ents {
		name := e.Name()
		if !strings.HasPrefix(name, "ckpt-") || !strings.HasSuffix(name, ckptSuffix) {
			continue
		}
		hex := strings.TrimSuffix(strings.TrimPrefix(name, "ckpt-"), ckptSuffix)
		lsn, err := strconv.ParseUint(hex, 16, 64)
		if err != nil {
			continue
		}
		cks = append(cks, ckptMeta{path: filepath.Join(dir, name), lsn: lsn})
	}
	sort.Slice(cks, func(i, j int) bool { return cks[i].lsn < cks[j].lsn })
	return cks, nil
}

// writeCheckpoint serializes st atomically into dir: the bytes go to a
// temp file that is fsynced and then renamed into place, so a crash
// mid-write never leaves a half checkpoint under a valid name. Returns
// the final path and the byte size.
func writeCheckpoint(dir string, st *State) (string, int64, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", 0, fmt.Errorf("persist: checkpoint dir: %w", err)
	}
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(st); err != nil {
		return "", 0, fmt.Errorf("persist: checkpoint encode: %w", err)
	}
	buf := make([]byte, 0, len(ckptMagic)+4+payload.Len())
	buf = append(buf, ckptMagic...)
	buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(payload.Bytes(), castagnoli))
	buf = append(buf, payload.Bytes()...)

	final := filepath.Join(dir, ckptName(st.WALLSN))
	tmp, err := os.CreateTemp(dir, "ckpt-*.tmp")
	if err != nil {
		return "", 0, fmt.Errorf("persist: checkpoint temp: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after successful rename
	if _, err := tmp.Write(buf); err != nil {
		tmp.Close()
		return "", 0, fmt.Errorf("persist: checkpoint write: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return "", 0, fmt.Errorf("persist: checkpoint fsync: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return "", 0, fmt.Errorf("persist: checkpoint close: %w", err)
	}
	if err := os.Rename(tmp.Name(), final); err != nil {
		return "", 0, fmt.Errorf("persist: checkpoint rename: %w", err)
	}
	if d, err := os.Open(dir); err == nil { // make the rename durable
		d.Sync()
		d.Close()
	}
	return final, int64(len(buf)), nil
}

// readCheckpoint loads and validates one checkpoint file.
func readCheckpoint(path string) (*State, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("persist: checkpoint read: %w", err)
	}
	if len(b) < len(ckptMagic)+4 || string(b[:len(ckptMagic)]) != ckptMagic {
		return nil, fmt.Errorf("persist: %s: bad checkpoint header", filepath.Base(path))
	}
	want := binary.LittleEndian.Uint32(b[len(ckptMagic):])
	payload := b[len(ckptMagic)+4:]
	if crc32.Checksum(payload, castagnoli) != want {
		return nil, fmt.Errorf("persist: %s: checkpoint checksum mismatch", filepath.Base(path))
	}
	var st State
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&st); err != nil {
		return nil, fmt.Errorf("persist: %s: checkpoint decode: %w", filepath.Base(path), err)
	}
	return &st, nil
}

// loadLatestCheckpoint scans dir newest-first and returns the first
// checkpoint that validates, skipping (and warning about) corrupt ones.
// A nil state with nil error means no usable checkpoint exists.
func loadLatestCheckpoint(dir string, logf func(string, ...any)) (*State, error) {
	if logf == nil {
		logf = log.Printf
	}
	cks, err := listCheckpoints(dir)
	if err != nil {
		return nil, fmt.Errorf("persist: checkpoint scan: %w", err)
	}
	for i := len(cks) - 1; i >= 0; i-- {
		st, err := readCheckpoint(cks[i].path)
		if err != nil {
			logf("persist: skipping checkpoint %s: %v", filepath.Base(cks[i].path), err)
			continue
		}
		return st, nil
	}
	return nil, nil
}

// pruneCheckpoints deletes all but the newest keep checkpoint files.
func pruneCheckpoints(dir string, keep int, logf func(string, ...any)) {
	if keep < 1 {
		keep = 1
	}
	cks, err := listCheckpoints(dir)
	if err != nil {
		return
	}
	for i := 0; i < len(cks)-keep; i++ {
		if err := os.Remove(cks[i].path); err != nil && logf != nil {
			logf("persist: pruning checkpoint %s: %v", filepath.Base(cks[i].path), err)
		}
	}
}
