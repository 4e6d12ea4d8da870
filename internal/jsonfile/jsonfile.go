// Package jsonfile is the one codec behind the repository's JSON
// files: scenario specs (specs/), traffic specs (traffic/) and fault
// plans (faultplans/). A file's schema is its Go type's struct tags;
// Decode reads one document strictly and Encode writes the shipped
// byte form, so every file format fails the same way on the same
// defects and renders the same way.
package jsonfile

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"regexp"
)

// Decode decodes data, one JSON document, into v. Unknown fields are
// rejected at every nesting level (types with their own UnmarshalJSON
// must stay strict themselves), and only whitespace may follow the
// document. src names the source (a path) in errors; an error whose
// byte offset can be recovered reads src:line:col, so a broken file
// points at its own defect.
func Decode(data []byte, src string, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return specError(data, src, err)
	}
	if rest := bytes.TrimLeft(data[dec.InputOffset():], " \t\r\n"); len(rest) > 0 {
		return positioned(data, src, int64(len(data)-len(rest)), errors.New("trailing data after the document"))
	}
	return nil
}

// Encode renders v as an indented, newline-terminated document: the
// exact bytes of every shipped file.
func Encode(v any) ([]byte, error) {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

var unknownField = regexp.MustCompile(`json: unknown field "([^"]+)"`)

// specError upgrades a decode error with a line:col position when one
// can be recovered (offset-carrying errors, unknown fields, a document
// cut short).
func specError(data []byte, src string, err error) error {
	var off int64 = -1
	switch e := err.(type) {
	case *json.SyntaxError:
		off = e.Offset
	case *json.UnmarshalTypeError:
		off = e.Offset
	default:
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			off, err = int64(len(data)), errors.New("unexpected end of JSON input")
		} else if m := unknownField.FindStringSubmatch(err.Error()); m != nil {
			if i := bytes.Index(data, []byte(`"`+m[1]+`"`)); i >= 0 {
				off = int64(i) + 1
			}
		}
	}
	return positioned(data, src, off, err)
}

// positioned prefixes err with src and, when off is a byte offset into
// data, its line:col.
func positioned(data []byte, src string, off int64, err error) error {
	if off < 0 || off > int64(len(data)) {
		return fmt.Errorf("%s: %w", src, err)
	}
	line, col := 1, 1
	for _, c := range data[:off] {
		col++
		if c == '\n' {
			line++
			col = 1
		}
	}
	return fmt.Errorf("%s:%d:%d: %w", src, line, col, err)
}
