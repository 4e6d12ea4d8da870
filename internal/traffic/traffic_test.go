package traffic

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"
)

// valid returns a minimal valid spec for mutation in table tests.
func valid() Spec {
	return Spec{
		Name:     "t",
		Rate:     5,
		Duration: 2,
		Clients: []Client{{
			ID:           "c0",
			RateFraction: 1,
			Class:        Batch,
			Submit:       Template{Preset: "hypre-trace"},
		}},
	}
}

func TestPresetsValidateAndResolve(t *testing.T) {
	seen := map[string]bool{}
	for _, s := range Presets() {
		if err := s.Validate(); err != nil {
			t.Errorf("preset %s: %v", s.Name, err)
		}
		if seen[s.Name] {
			t.Errorf("duplicate preset name %s", s.Name)
		}
		seen[s.Name] = true
		for _, c := range s.Clients {
			spec, err := c.Submit.Resolve()
			if err != nil {
				t.Errorf("preset %s client %s: %v", s.Name, c.ID, err)
			}
			if spec.Size() == 0 {
				t.Errorf("preset %s client %s: template expands to zero points", s.Name, c.ID)
			}
		}
	}
	if _, err := ByName("bursty-two-class"); err != nil {
		t.Fatal(err)
	}
	if _, err := ByName("no-such"); err == nil {
		t.Fatal("ByName(no-such) did not fail")
	}
}

func TestCodecRoundTrip(t *testing.T) {
	for _, s := range Presets() {
		b, err := Encode(s)
		if err != nil {
			t.Fatalf("%s: encode: %v", s.Name, err)
		}
		parsed, err := ParseSpec(b, s.Name+".json")
		if err != nil {
			t.Fatalf("%s: parse: %v", s.Name, err)
		}
		b2, err := Encode(parsed)
		if err != nil {
			t.Fatalf("%s: re-encode: %v", s.Name, err)
		}
		if !bytes.Equal(b, b2) {
			t.Errorf("%s: encode not byte-stable through a parse round trip", s.Name)
		}
	}
}

func TestParseRejectsUnknownFields(t *testing.T) {
	cases := []struct {
		name string
		json string
		want string // substring of the error
	}{
		{
			"top level",
			`{"name":"x","rate":1,"duration_s":1,"burstiness":2,"clients":[]}`,
			`unknown field "burstiness"`,
		},
		{
			"inside client",
			`{"name":"x","rate":1,"duration_s":1,"clients":[{"id":"a","rate_fraction":1,"slo_class":"batch","arrival":{},"submit":{"preset":"hypre-trace"},"priority":9}]}`,
			`unknown field "priority"`,
		},
		{
			"inside arrival",
			`{"name":"x","rate":1,"duration_s":1,"clients":[{"id":"a","rate_fraction":1,"slo_class":"batch","arrival":{"lambda":3},"submit":{"preset":"hypre-trace"}}]}`,
			`unknown field "lambda"`,
		},
		{
			"inside inline scenario spec",
			`{"name":"x","rate":1,"duration_s":1,"clients":[{"id":"a","rate_fraction":1,"slo_class":"batch","arrival":{},"submit":{"spec":{"name":"s","apps":["XSBench"],"cores":[4]}}}]}`,
			`unknown field "cores"`,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseSpec([]byte(tc.json), "bad.json")
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error = %v, want %q", err, tc.want)
			}
		})
	}
}

func TestParseErrorCarriesPosition(t *testing.T) {
	data := []byte("{\n  \"name\": \"x\",\n  \"typo\": 1\n}")
	_, err := ParseSpec(data, "bad.json")
	if err == nil || !strings.Contains(err.Error(), "bad.json:3:") {
		t.Fatalf("error = %v, want a bad.json:3:<col> position", err)
	}
}

// ParseSpec takes exactly one document: anything after it but
// whitespace is rejected at its file:line:col.
func TestParseRejectsTrailingData(t *testing.T) {
	valid, err := Encode(Presets()[0])
	if err != nil {
		t.Fatal(err)
	}
	next := bytes.Count(valid, []byte("\n")) + 1 // the line after the spec
	if _, err := ParseSpec(append(valid, " \n\t\r\n"...), "ok.json"); err != nil {
		t.Fatalf("trailing whitespace rejected: %v", err)
	}
	for _, tail := range []string{"garbage", "{}", "}", "]", "  \n{}"} {
		_, err := ParseSpec(append(valid[:len(valid):len(valid)], tail...), "bad.json")
		line, col := next, 1
		if tail == "  \n{}" {
			line++
		}
		want := fmt.Sprintf("bad.json:%d:%d: trailing data after the document", line, col)
		if err == nil || err.Error() != want {
			t.Errorf("tail %q: error = %v, want %q", tail, err, want)
		}
	}
}

func TestValidateRejections(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Spec)
		want string
	}{
		{"no name", func(s *Spec) { s.Name = "" }, "no name"},
		{"zero rate", func(s *Spec) { s.Rate = 0 }, "rate"},
		{"huge rate", func(s *Spec) { s.Rate = MaxRate + 1 }, "rate"},
		{"no clients", func(s *Spec) { s.Clients = nil }, "no clients"},
		{"no client id", func(s *Spec) { s.Clients[0].ID = "" }, "no id"},
		{"duplicate id", func(s *Spec) { s.Clients = append(s.Clients, s.Clients[0]) }, "duplicate"},
		{"fractions off", func(s *Spec) { s.Clients[0].RateFraction = 0.5 }, "sum"},
		{"bad class", func(s *Spec) { s.Clients[0].Class = "gold" }, "slo_class"},
		{"cv on poisson", func(s *Spec) { s.Clients[0].Arrival.CV = 2 }, "poisson takes no"},
		// cv below 0.01 once sent the gamma sampler's shape k=1/cv^2 to
		// +Inf and Marsaglia-Tsang into an infinite rejection loop.
		{"tiny gamma cv", func(s *Spec) {
			s.Clients[0].Arrival = Arrival{Process: Gamma, CV: 1e-300}
		}, "cv"},
		{"burst on gamma", func(s *Spec) {
			s.Clients[0].Arrival = Arrival{Process: Gamma, Burst: 4}
		}, "gamma takes no"},
		{"factor too low", func(s *Spec) {
			s.Clients[0].Arrival = Arrival{Process: Bursty, Factor: 1}
		}, "factor"},
		{"unknown process", func(s *Spec) { s.Clients[0].Arrival.Process = "weibull" }, "unknown process"},
		{"no template", func(s *Spec) { s.Clients[0].Submit = Template{} }, "preset or an inline spec"},
		{"unknown preset", func(s *Spec) { s.Clients[0].Submit.Preset = "no-such" }, "no-such"},
		{"bad kind", func(s *Spec) { s.Clients[0].Submit.Kind = "dryrun" }, "unknown kind"},
		{"no duration", func(s *Spec) { s.Duration = 0 }, "duration_s"},
		{"duration and phases", func(s *Spec) {
			s.Phases = []Phase{{Kind: Steady, Duration: 1, Level: 1}}
		}, "exclusive"},
		{"drain with level", func(s *Spec) {
			s.Duration = 0
			s.Phases = []Phase{{Kind: Drain, Duration: 1, Level: 2}}
		}, "drain"},
		{"unknown phase kind", func(s *Spec) {
			s.Duration = 0
			s.Phases = []Phase{{Kind: "hold", Duration: 1, Level: 1}}
		}, "unknown kind"},
		{"steady without level", func(s *Spec) {
			s.Duration = 0
			s.Phases = []Phase{{Kind: Steady, Duration: 1}}
		}, "level"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := valid()
			tc.mut(&s)
			err := s.Validate()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Validate = %v, want error containing %q", err, tc.want)
			}
		})
	}
	if err := valid().Validate(); err != nil {
		t.Fatalf("baseline spec invalid: %v", err)
	}
}

func TestTimelineDeterministic(t *testing.T) {
	s, err := ByName("bursty-two-class")
	if err != nil {
		t.Fatal(err)
	}
	a, err := s.Timeline(s.Seed)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Timeline(s.Seed)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) == 0 {
		t.Fatal("empty timeline")
	}
	if len(a) != len(b) {
		t.Fatalf("replay lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("event %d differs: %v vs %v", i, a[i], b[i])
		}
	}
	c, err := s.Timeline(s.Seed + 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) == len(c) {
		same := true
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
		if same {
			t.Fatal("different seeds produced an identical timeline")
		}
	}
	total := time.Duration(s.TotalDuration() * float64(time.Second))
	last := time.Duration(0)
	for _, e := range a {
		if e.At < last {
			t.Fatalf("timeline not sorted at %v", e.At)
		}
		last = e.At
		if e.At < 0 || e.At > total {
			t.Fatalf("event at %v outside [0,%v]", e.At, total)
		}
		if e.Client < 0 || e.Client >= len(s.Clients) {
			t.Fatalf("event client %d out of range", e.Client)
		}
	}
}

// Every process must hit its configured long-run rate: 600 expected
// arrivals leaves statistical noise well inside +-15%.
func TestTimelineRates(t *testing.T) {
	for _, arr := range []Arrival{
		{Process: Poisson},
		{Process: Gamma, CV: 0.5},
		{Process: Gamma, CV: 3},
		{Process: Bursty, Burst: 6, Factor: 8},
		{Process: Bursty}, // defaults
	} {
		s := valid()
		s.Rate = 60
		s.Duration = 10
		s.Clients[0].Arrival = arr
		if err := s.Validate(); err != nil {
			t.Fatalf("%+v: %v", arr, err)
		}
		ev, err := s.Timeline(99)
		if err != nil {
			t.Fatal(err)
		}
		want := s.Rate * s.Duration
		if got := float64(len(ev)); got < want*0.85 || got > want*1.15 {
			t.Errorf("%+v: %v events, want ~%v", arr, got, want)
		}
	}
}

// A 0->1 ramp integrates to half a steady phase's arrivals, skewed
// late: the linear hazard puts the median arrival at sqrt(1/2) of the
// window, not the middle.
func TestTimelineRampShape(t *testing.T) {
	s := valid()
	s.Rate = 200
	s.Duration = 0
	s.Phases = []Phase{{Kind: Ramp, Duration: 10, Level: 1}}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	ev, err := s.Timeline(5)
	if err != nil {
		t.Fatal(err)
	}
	want := s.Rate * 10 / 2
	if got := float64(len(ev)); got < want*0.85 || got > want*1.15 {
		t.Fatalf("%v events under the ramp, want ~%v", got, want)
	}
	median := ev[len(ev)/2].At.Seconds()
	if median < 6.5 || median > 7.7 {
		t.Errorf("ramp median arrival at %.2fs, want ~7.07s", median)
	}
}

func TestTimelineDrainIsSilent(t *testing.T) {
	s := valid()
	s.Rate = 100
	s.Duration = 0
	s.Phases = []Phase{
		{Kind: Steady, Duration: 2, Level: 1},
		{Kind: Drain, Duration: 5},
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	ev, err := s.Timeline(3)
	if err != nil {
		t.Fatal(err)
	}
	if len(ev) == 0 {
		t.Fatal("no events in the steady window")
	}
	for _, e := range ev {
		if e.At.Seconds() > 2 {
			t.Fatalf("arrival at %v inside the drain window", e.At)
		}
	}
}

func TestTimelineRefusesRunaway(t *testing.T) {
	s := valid()
	s.Rate = MaxRate
	s.Duration = MaxDuration
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Timeline(1); err == nil || !strings.Contains(err.Error(), "events") {
		t.Fatalf("Timeline = %v, want a MaxEvents refusal", err)
	}
}
