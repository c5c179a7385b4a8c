// Package space is the tuner's view of the VDMS configuration space
// (paper §IV-A, §V-A): the index type plus every scalar knob the engine
// declares in vdms.Knobs, one dimension each. It provides the encoding the
// surrogate model works in ([0,1]^Dims), decoding back to engine
// configurations, defaults, and random/LHS sampling restricted to an index
// type's subspace. Ranges, integrality, defaults and per-index-type
// ownership all come from the knob table, so a decoded configuration is
// valid by construction.
package space

import (
	"math"
	"math/rand"

	"vdtuner/internal/index"
	"vdtuner/internal/mobo"
	"vdtuner/internal/vdms"
)

// Param identifies one tunable dimension: a row of vdms.Knobs.
type Param = vdms.KnobID

// NumParams is the number of scalar parameters (excluding the index type).
const NumParams = int(vdms.NumKnobs)

// Dims is the total encoded dimensionality: index type + NumParams.
const Dims = NumParams + 1

// OwnedBy reports whether index type t tunes parameter p. Shared (system)
// parameters are owned by every type; FLAT and AUTOINDEX own only shared
// parameters (Table I: "N/A ; N/A").
func OwnedBy(p Param, t index.Type) bool { return vdms.Knobs[p].OwnedBy(t) }

// Vector is an encoded configuration in [0,1]^Dims: Vector[0] encodes the
// index type, Vector[1+p] encodes parameter p.
type Vector []float64

// typeCount is the number of selectable index types.
var typeCount = len(index.AllTypes())

// EncodeType maps an index type to its [0,1] coordinate.
func EncodeType(t index.Type) float64 {
	return float64(int(t)) / float64(typeCount-1)
}

// DecodeType maps a [0,1] coordinate back to the nearest index type.
func DecodeType(v float64) index.Type {
	i := int(math.Round(v * float64(typeCount-1)))
	if i < 0 {
		i = 0
	}
	if i >= typeCount {
		i = typeCount - 1
	}
	return index.AllTypes()[i]
}

// encodeVal maps a raw parameter value to [0,1].
func encodeVal(d *vdms.Knob, v float64) float64 {
	u := (v - d.Min) / (d.Max - d.Min)
	if u < 0 {
		u = 0
	}
	if u > 1 {
		u = 1
	}
	return u
}

// decodeVal maps a [0,1] coordinate back to the parameter's range,
// rounding integer parameters.
func decodeVal(d *vdms.Knob, u float64) float64 {
	if u < 0 {
		u = 0
	}
	if u > 1 {
		u = 1
	}
	v := d.Min + u*(d.Max-d.Min)
	if d.Integer {
		v = math.Round(v)
	}
	return v
}

// Encode maps an engine configuration to its surrogate-space vector.
// Zero-means-default knobs encode their resolved value.
func Encode(cfg vdms.Config) Vector {
	x := make(Vector, Dims)
	x[0] = EncodeType(cfg.IndexType)
	for p := range vdms.Knobs {
		k := &vdms.Knobs[p]
		x[1+p] = encodeVal(k, k.Get(&cfg))
	}
	return x
}

// Decode maps a surrogate-space vector back to an engine configuration.
// Parameters not owned by the decoded index type are reset to defaults, so
// two vectors that differ only in unowned dimensions decode identically.
func Decode(x Vector) vdms.Config {
	cfg := vdms.Config{IndexType: DecodeType(x[0])}
	for p := range vdms.Knobs {
		k := &vdms.Knobs[p]
		v := k.Default
		if k.OwnedBy(cfg.IndexType) {
			v = decodeVal(k, x[1+p])
		}
		k.Set(&cfg, v)
	}
	return cfg
}

// DefaultVector returns the encoded default configuration for index type t
// (defaults everywhere, type coordinate set to t).
func DefaultVector(t index.Type) Vector {
	x := make(Vector, Dims)
	x[0] = EncodeType(t)
	for p := range vdms.Knobs {
		x[1+p] = encodeVal(&vdms.Knobs[p], vdms.Knobs[p].Default)
	}
	return x
}

// DefaultConfig returns the engine default configuration with the index
// type forced to t.
func DefaultConfig(t index.Type) vdms.Config { return Decode(DefaultVector(t)) }

// SampleSubspace draws a uniform random vector for index type t: owned
// dimensions uniform in [0,1], unowned index parameters at defaults.
func SampleSubspace(t index.Type, rng *rand.Rand) Vector {
	x := DefaultVector(t)
	for p := 0; p < NumParams; p++ {
		if OwnedBy(Param(p), t) {
			x[1+p] = rng.Float64()
		}
	}
	return x
}

// PerturbSubspace returns a copy of x with each owned dimension nudged by
// Gaussian noise of the given scale (clamped to [0,1]); the index type is
// preserved. It provides the local half of the acquisition candidate set.
func PerturbSubspace(x Vector, t index.Type, scale float64, rng *rand.Rand) Vector {
	out := make(Vector, len(x))
	copy(out, x)
	out[0] = EncodeType(t)
	for p := 0; p < NumParams; p++ {
		if !OwnedBy(Param(p), t) {
			continue
		}
		v := out[1+p] + rng.NormFloat64()*scale
		if v < 0 {
			v = 0
		}
		if v > 1 {
			v = 1
		}
		out[1+p] = v
	}
	return out
}

// LHSAcrossTypes draws n Latin-hypercube samples over the full holistic
// space (index type treated as one more dimension), as the baselines do.
func LHSAcrossTypes(n int, rng *rand.Rand) []Vector {
	raw := mobo.LHS(n, Dims, rng)
	out := make([]Vector, n)
	for i, r := range raw {
		out[i] = Vector(r)
	}
	return out
}
