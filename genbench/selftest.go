package main

import (
	"fmt"
	"regexp"
	"time"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// runSelfTest runs every workload at a tiny scale, untraced and traced, and
// checks that every emitted metric is declared in BENCHMARK.json with its
// unit and a valid name, and that every declared metric is emitted.
func runSelfTest() error {
	for _, trace := range []bool{false, true} {
		section := "end_to_end"
		if trace {
			section = "per_layer"
		}
		declared, err := declaredUnits(section)
		if err != nil {
			return err
		}
		for _, w := range workloadOrder {
			res, err := runWorkload(w, 7, time.Second, trace, scale{tiny: true})
			if err != nil {
				return fmt.Errorf("%s trace=%v: %w", w, trace, err)
			}
			if !res.Correct {
				return fmt.Errorf("%s trace=%v: answers or durability mismatched", w, trace)
			}
			for name, m := range res.Metrics {
				if !nameRE.MatchString(name) {
					return fmt.Errorf("%s: metric name %q is not [A-Za-z0-9_.-]+", w, name)
				}
				unit, ok := declared[name]
				if !ok {
					return fmt.Errorf("%s trace=%v: metric %q is not declared in BENCHMARK.json", w, trace, name)
				}
				if unit != m.Unit {
					return fmt.Errorf("%s: metric %q has unit %q, declared %q", w, name, m.Unit, unit)
				}
			}
			for name := range declared {
				if _, ok := res.Metrics[name]; !ok {
					return fmt.Errorf("%s trace=%v: declared metric %q not emitted", w, trace, name)
				}
			}
			fmt.Printf("genbench: self-test %s trace=%v: %d metrics ok\n", w, trace, len(res.Metrics))
		}
	}
	return nil
}
