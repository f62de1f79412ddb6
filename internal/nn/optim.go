package nn

import (
	"math"

	"turbo/internal/tensor"
)

// Optimizer updates parameters from their accumulated gradients and
// zeroes the gradients afterwards.
type Optimizer interface {
	Step()
	ZeroGrad()
}

// SGD is plain stochastic gradient descent with optional L2 weight decay.
type SGD struct {
	Params      []*Parameter
	LR          float64
	WeightDecay float64
}

// NewSGD builds an SGD optimizer over the module's parameters.
func NewSGD(m Module, lr float64) *SGD {
	return &SGD{Params: m.Parameters(), LR: lr}
}

// Step applies one SGD update.
func (o *SGD) Step() {
	for _, p := range o.Params {
		for i, g := range p.Grad.Data {
			if o.WeightDecay != 0 {
				g += o.WeightDecay * p.Value.Data[i]
			}
			p.Value.Data[i] -= o.LR * g
		}
	}
	o.ZeroGrad()
}

// ZeroGrad clears all gradients.
func (o *SGD) ZeroGrad() {
	for _, p := range o.Params {
		p.ZeroGrad()
	}
}

// Adam implements the Adam optimizer (Kingma & Ba) with bias correction,
// the optimizer the paper uses for all GNNs (lr 5e-4).
type Adam struct {
	Params      []*Parameter
	LR          float64
	Beta1       float64
	Beta2       float64
	Eps         float64
	WeightDecay float64

	t int
	m []*tensor.Matrix
	v []*tensor.Matrix
}

// NewAdam builds an Adam optimizer with the standard betas.
func NewAdam(mod Module, lr float64) *Adam {
	params := mod.Parameters()
	a := &Adam{Params: params, LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8}
	for _, p := range params {
		a.m = append(a.m, tensor.New(p.Value.Rows, p.Value.Cols))
		a.v = append(a.v, tensor.New(p.Value.Rows, p.Value.Cols))
	}
	return a
}

// Step applies one Adam update.
func (o *Adam) Step() {
	o.t++
	bc1 := 1 - math.Pow(o.Beta1, float64(o.t))
	bc2 := 1 - math.Pow(o.Beta2, float64(o.t))
	for pi, p := range o.Params {
		m, v := o.m[pi], o.v[pi]
		for i, g := range p.Grad.Data {
			if o.WeightDecay != 0 {
				g += o.WeightDecay * p.Value.Data[i]
			}
			m.Data[i] = o.Beta1*m.Data[i] + (1-o.Beta1)*g
			v.Data[i] = o.Beta2*v.Data[i] + (1-o.Beta2)*g*g
			mh := m.Data[i] / bc1
			vh := v.Data[i] / bc2
			p.Value.Data[i] -= o.LR * mh / (math.Sqrt(vh) + o.Eps)
		}
	}
	o.ZeroGrad()
}

// ZeroGrad clears all gradients.
func (o *Adam) ZeroGrad() {
	for _, p := range o.Params {
		p.ZeroGrad()
	}
}

// ClipGradNorm rescales all gradients so their global L2 norm does not
// exceed maxNorm; it returns the pre-clip norm.
func ClipGradNorm(m Module, maxNorm float64) float64 {
	var sq float64
	params := m.Parameters()
	for _, p := range params {
		for _, g := range p.Grad.Data {
			sq += g * g
		}
	}
	norm := math.Sqrt(sq)
	if norm > maxNorm && norm > 0 {
		s := maxNorm / norm
		for _, p := range params {
			p.Grad.ScaleInPlace(s)
		}
	}
	return norm
}
