// Package traffic ships the traffic presets: each *.json file in this
// directory is one preset, named by its file stem. internal/traffic
// decodes them.
package traffic

import "embed"

// FS holds the preset traffic spec files.
//
//go:embed *.json
var FS embed.FS
