package core

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"vdtuner/internal/index"
	"vdtuner/internal/space"
	"vdtuner/internal/vdms"
)

// The knowledge base (Figure 5's "Knowledge Base" box): tuning
// observations serialized as JSON so a later run — possibly with a
// different recall preference — can bootstrap from them (§IV-F).

// kbFile is the on-disk schema of a knowledge base.
type kbFile struct {
	Version      int      `json:"version"`
	Observations []kbObs  `json:"observations"`
	Comment      string   `json:"comment,omitempty"`
	Datasets     []string `json:"datasets,omitempty"`
}

// kbObs is one observation; vdms.Config and vdms.Result carry their own
// JSON forms (Config's is keyed by knob name, see vdms.Knobs).
type kbObs struct {
	IndexType string      `json:"index_type"`
	Config    vdms.Config `json:"config"`
	X         []float64   `json:"x"`
	ObjA      float64     `json:"obj_a"`
	ObjB      float64     `json:"obj_b"`
	Result    vdms.Result `json:"result"`
}

// SaveObservations writes observations as a JSON knowledge base.
func SaveObservations(w io.Writer, obs []Observation) error {
	f := kbFile{Version: 1}
	for _, o := range obs {
		f.Observations = append(f.Observations, kbObs{o.Type.String(), o.Config, o.X, o.ObjA, o.ObjB, o.Result})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(f)
}

// usable reports whether a stored vector can stand as an observation's
// encoding: the current space's length, every coordinate in [0,1].
func usable(x []float64) bool {
	if len(x) != space.Dims {
		return false
	}
	for _, v := range x {
		if !(v >= 0 && v <= 1) { // also false for NaN
			return false
		}
	}
	return true
}

// LoadObservations reads a JSON knowledge base back into observations
// suitable for Options.Bootstrap. A knowledge base is outside input: a
// stored vector that is missing, from a different space layout, or not
// inside the unit cube is replaced by the encoding of its configuration
// rather than handed to the surrogate.
func LoadObservations(r io.Reader) ([]Observation, error) {
	var f kbFile
	if err := json.NewDecoder(r).Decode(&f); err != nil {
		return nil, fmt.Errorf("core: decoding knowledge base: %w", err)
	}
	if f.Version != 1 {
		return nil, fmt.Errorf("core: unsupported knowledge base version %d", f.Version)
	}
	var out []Observation
	for i, ko := range f.Observations {
		t, err := index.ParseType(ko.IndexType)
		if err != nil {
			return nil, fmt.Errorf("core: observation %d: %w", i, err)
		}
		x := space.Vector(ko.X)
		if !usable(ko.X) {
			x = space.Encode(ko.Config)
		}
		out = append(out, Observation{Config: ko.Config, X: x, Type: t, ObjA: ko.ObjA, ObjB: ko.ObjB, Result: ko.Result})
	}
	return out, nil
}

// SaveKnowledgeBase writes the tuner's observations to path.
func (t *Tuner) SaveKnowledgeBase(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := SaveObservations(f, t.obs); err != nil {
		return err
	}
	return f.Close()
}

// LoadKnowledgeBase reads observations from path, for Options.Bootstrap.
func LoadKnowledgeBase(path string) ([]Observation, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return LoadObservations(f)
}
