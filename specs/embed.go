// Package specs ships the scenario presets: each *.json file in this
// directory is one preset, named by its file stem. internal/scenario
// decodes them on first use.
package specs

import "embed"

// FS holds the preset spec files.
//
//go:embed *.json
var FS embed.FS
