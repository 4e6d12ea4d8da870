package jsonfile

import "testing"

type inner struct {
	B int `json:"b"`
}

type doc struct {
	A     string  `json:"a"`
	Inner []inner `json:"inner,omitempty"`
}

func TestDecodeErrorPositions(t *testing.T) {
	for _, c := range []struct{ src, want string }{
		{"", "x.json:1:1: unexpected end of JSON input"},
		{"{\"a\": \"v\",\n  \"inner\": [", "x.json:2:13: unexpected end of JSON input"},
		{"{\"a\": \"v\",\n  \"inner\": [{\"b\": 1, \"c\": 2}]}", `x.json:2:23: json: unknown field "c"`},
		{"{\"a\": 1}", "x.json:1:8: json: cannot unmarshal number into Go struct field doc.a of type string"},
		{"{\"a\": \"v\"}\n {}", "x.json:2:2: trailing data after the document"},
	} {
		var d doc
		if err := Decode([]byte(c.src), "x.json", &d); err == nil || err.Error() != c.want {
			t.Errorf("Decode(%q) = %v, want %q", c.src, err, c.want)
		}
	}
	var d doc
	if err := Decode([]byte("\n{\"a\": \"v\", \"inner\": [{\"b\": 1}]} \r\n\t"), "x.json", &d); err != nil ||
		d.A != "v" || len(d.Inner) != 1 || d.Inner[0].B != 1 {
		t.Errorf("valid document with trailing whitespace: %+v, %v", d, err)
	}
}

func TestEncodeShippedForm(t *testing.T) {
	b, err := Encode(doc{A: "v", Inner: []inner{{B: 1}}})
	want := "{\n  \"a\": \"v\",\n  \"inner\": [\n    {\n      \"b\": 1\n    }\n  ]\n}\n"
	if err != nil || string(b) != want {
		t.Errorf("Encode = %q, %v; want %q", b, err, want)
	}
}
