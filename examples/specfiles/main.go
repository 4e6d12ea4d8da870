// Specfiles: author a sweep as a JSON spec file — no Go, no recompile —
// then load and run it through the evaluation engine. The spec mixes
// every workload source the schema offers: a registry application, a
// resized one ("sized") and a fused multi-application workload
// ("composite"). The same file runs from the CLI via
// `nvmbench -spec <path>`.
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	"repro/internal/core"
	"repro/internal/scenario"
)

const spec = `{
  "name": "mixed-pressure",
  "description": "XSBench at paper size and doubled, next to a fused Hypre+FFT pipeline",
  "apps": ["XSBench"],
  "sized": [{"app": "XSBench", "scale": 2, "label": "XSBench-2x"}],
  "composite": [{"label": "hypre+fft", "parts": [{"app": "Hypre", "weight": 3}, {"app": "FFT", "weight": 1}]}],
  "modes": ["DRAM", "cached-NVM", "uncached-NVM"],
  "threads": [48]
}
`

func main() {
	dir, err := os.MkdirTemp("", "specfiles")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "mixed-pressure.json")
	if err := os.WriteFile(path, []byte(spec), 0o644); err != nil {
		log.Fatal(err)
	}

	sp, err := scenario.LoadSpec(path)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("loaded %s: %d evaluation points\n\n", sp.Name, sp.Size())

	m := core.NewMachine()
	outs, err := m.RunScenario(sp)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(scenario.Table(outs))

	// Round-trip: a Spec is data, and Encode renders it in the form
	// every shipped preset file under specs/ takes.
	b, err := scenario.Encode(sp)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nthe spec in shipped-file form:\n%s", b)
}
