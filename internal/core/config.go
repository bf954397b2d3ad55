package core

import (
	"encoding/json"
	"fmt"
	"slices"
	"strings"
)

// Config is the full RPA configuration deployed to one switch: the union of
// the three primitive kinds of Figure 7. This is the payload the Centralium
// controller generates per switch and the Switch Agent pushes over RPC.
//
// A Config is a value: once a *Config has been handed to anyone — deployed,
// compiled, put in an intent, published — it is never edited again, because
// receivers keep the pointer and a Program compiled from it is shared by every
// speaker and fork it reaches. To change one, copy the struct and replace the
// slices you touch, as Merge, planner.Step.Intent and guard.Campaign do.
type Config struct {
	// Version increases monotonically with each generation; the agent uses
	// it to detect stragglers (Section 5.1's consistency guarantee).
	Version int64 `json:"version"`

	PathSelection  []PathSelectionStatement  `json:"path_selection,omitempty"`
	RouteAttribute []RouteAttributeStatement `json:"route_attribute,omitempty"`
	RouteFilter    []RouteFilterStatement    `json:"route_filter,omitempty"`
}

// IsEmpty reports whether the config carries no statements.
func (c *Config) IsEmpty() bool {
	return len(c.PathSelection) == 0 && len(c.RouteAttribute) == 0 && len(c.RouteFilter) == 0
}

// Marshal renders the config as indented JSON — the deployment payload and
// also what Table 3's "RPA LOC" column counts.
func (c *Config) Marshal() ([]byte, error) {
	return json.MarshalIndent(c, "", "  ")
}

// Unmarshal parses a config previously produced by Marshal.
func Unmarshal(data []byte) (*Config, error) {
	var c Config
	if err := json.Unmarshal(data, &c); err != nil {
		return nil, fmt.Errorf("core: parse config: %w", err)
	}
	return &c, nil
}

// LOC counts the lines of the config's canonical text form, the measure the
// paper reports per migration in Table 3.
func (c *Config) LOC() int {
	data, err := c.Marshal()
	if err != nil {
		return 0
	}
	return strings.Count(string(data), "\n") + 1
}

// Validate checks structural validity: Compile with the program dropped.
func (c *Config) Validate() error {
	_, err := Compile(c)
	return err
}

// Merge returns a new config containing the statements of both, with c's
// statements at higher priority (earlier). Orthogonal RPAs influence
// exclusive prefix sets (Section 5.3 footnote), so concatenation is the
// production composition rule. The result takes the higher version.
func (c *Config) Merge(other *Config) *Config {
	return &Config{
		Version:        max(c.Version, other.Version),
		PathSelection:  slices.Concat(c.PathSelection, other.PathSelection),
		RouteAttribute: slices.Concat(c.RouteAttribute, other.RouteAttribute),
		RouteFilter:    slices.Concat(c.RouteFilter, other.RouteFilter),
	}
}
