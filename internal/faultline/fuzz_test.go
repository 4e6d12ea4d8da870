package faultline

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
)

// FuzzParsePlan drives arbitrary bytes through the strict plan codec,
// the decoder behind nvmserve -fault-plan. Nothing may panic, and a
// plan it accepts must validate and come back unchanged through
// json.Marshal and ParsePlan.
func FuzzParsePlan(f *testing.F) {
	chaos, err := os.ReadFile("../../faultplans/chaos-1pct.json")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(chaos)
	f.Add([]byte(`{"seed": 7, "rules": [{"op": "read", "path": ".seg", "nth": 3, "kind": "flip"}, {"op": "open", "prob": 1, "kind": "delay", "delay_ms": 0.5}]}`))
	for _, tail := range []string{"}", "]", " {}", " garbage"} {
		f.Add([]byte(`{"rules": []}` + tail))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := ParsePlan(data, "fuzz.json")
		if err != nil {
			return
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("accepted plan does not validate: %v", err)
		}
		b, err := json.Marshal(p)
		if err != nil {
			t.Fatalf("accepted plan failed to marshal: %v", err)
		}
		back, err := ParsePlan(b, "marshaled.json")
		if err != nil {
			t.Fatalf("marshaled plan %s failed to re-parse: %v", b, err)
		}
		if !reflect.DeepEqual(back, p) {
			t.Fatalf("round trip changed the plan:\n%+v\nvs\n%+v", p, back)
		}
	})
}
