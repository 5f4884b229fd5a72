package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// benchSpec is the part of the repository's BENCHMARK.json the program
// reads: the metric names and units each mode must print.
type benchSpec struct {
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// finish checks r's metrics against BENCHMARK.json: the end-to-end run
// must set every end_to_end metric, and the traced run sets per_layer
// metrics, a layer the workload does not reach reading 0. A metric the
// file does not list, or listed with another unit, is an error.
func finish(cfg config, r *run) error {
	b, err := os.ReadFile(filepath.Join(cfg.root, "BENCHMARK.json"))
	if err != nil {
		return err
	}
	var spec benchSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	want := spec.EndToEnd
	if cfg.trace {
		want = spec.PerLayer
	}
	units := map[string]string{}
	for _, m := range want {
		units[m.Name] = m.Unit
		if _, ok := r.metrics[m.Name]; !ok {
			if !cfg.trace {
				return fmt.Errorf("end-to-end metric %s was not measured", m.Name)
			}
			r.set(m.Name, 0, m.Unit)
		}
	}
	for name, m := range r.metrics {
		if u, ok := units[name]; !ok || u != m.Unit {
			return fmt.Errorf("metric %s (%s) is not listed in BENCHMARK.json with that unit", name, m.Unit)
		}
	}
	return nil
}
