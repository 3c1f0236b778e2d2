package lib

// Config is a knob struct: each field's comment says what the scan must
// conclude about it.
type Config struct {
	// Keyed is set by a composite literal in cmd/app: kept.
	Keyed int
	// Assigned is assigned in cmd/app: kept.
	Assigned int
	// Defaulted is set only by withDefaults, in this file: flagged.
	Defaulted int
	// TestSet is set only from lib_test.go: flagged.
	TestSet int
}

func (c *Config) withDefaults() {
	if c.Defaulted == 0 {
		c.Defaulted = 1
	}
}
