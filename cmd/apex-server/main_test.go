package main

import (
	"flag"
	"os"
	"regexp"
	"strings"
	"testing"
)

// TestFlagTableMatchesREADME keeps the one flag table in README.md and
// the registered flag set equal, in both directions, names and defaults:
// a flag cannot be added, dropped or re-defaulted without the docs
// saying so.
func TestFlagTableMatchesREADME(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(readme), "\n## The `apex-server` service")
	if !ok {
		t.Fatal("README.md has no apex-server section")
	}
	section, _, _ = strings.Cut(section, "\n## ")
	documented := map[string]string{}
	for _, m := range regexp.MustCompile("(?m)^\\| `-([a-z-]+)` \\| `([^`]*)` \\|").FindAllStringSubmatch(section, -1) {
		documented[m[1]] = strings.Trim(m[2], `"`)
	}

	fs := flag.NewFlagSet("apex-server", flag.ContinueOnError)
	defineFlags(fs)
	fs.VisitAll(func(f *flag.Flag) {
		def, ok := documented[f.Name]
		if !ok {
			t.Errorf("flag -%s is registered but missing from README's flag table", f.Name)
		} else if def != f.DefValue {
			t.Errorf("flag -%s: README says default %q, the binary has %q", f.Name, def, f.DefValue)
		}
		delete(documented, f.Name)
	})
	for name := range documented {
		t.Errorf("README's flag table lists -%s, which is not registered", name)
	}
}
