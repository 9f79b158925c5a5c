package experiments

import (
	"os"
	"strings"
	"testing"
)

// TestSchemeExamplesParse feeds every documented scheme-name form through
// the parser, so SchemeSyntax can never advertise a grammar SchemeByName
// rejects.
func TestSchemeExamplesParse(t *testing.T) {
	for _, name := range SchemeExamples() {
		if _, err := SchemeByName(name); err != nil {
			t.Errorf("documented example %q does not parse: %v", name, err)
		}
	}
}

// TestSweepSchemeNamesParse round-trips the sweep catalog's names through
// SchemeByName: every name Run prints in its rows must be reconstructible
// from the CLI.
func TestSweepSchemeNamesParse(t *testing.T) {
	for _, spec := range Schemes() {
		if _, err := SchemeByName(spec.Name); err != nil {
			t.Errorf("sweep scheme %q does not parse: %v", spec.Name, err)
		}
	}
}

// TestSchemeSyntaxSingleSource pins the single-source-of-truth property:
// every alternative in the grammar string has a corresponding example, and
// README.md quotes the grammar verbatim rather than paraphrasing it.
func TestSchemeSyntaxSingleSource(t *testing.T) {
	syntax := SchemeSyntax()
	forms := strings.Split(syntax, " | ")
	if len(forms) != len(SchemeExamples()) {
		t.Fatalf("grammar lists %d forms but SchemeExamples has %d entries", len(forms), len(SchemeExamples()))
	}
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatalf("read README.md: %v", err)
	}
	if !strings.Contains(string(readme), syntax) {
		t.Errorf("README.md does not quote SchemeSyntax() verbatim; update the scheme list there to:\n%s", syntax)
	}
}

func TestSchemeByNameRejectsMalformed(t *testing.T) {
	for _, name := range []string{
		"", "killi", "killi-", "killi-1:0", "killi-1:64x", "killi-2:64",
		"killi-olsc-1:64", "killi-olsc0-1:64", "killi-dected-1:",
		"killi-olsc32-1:64", "killi-olsc100000-1:64",
		"secded ", "Killi-1:64",
	} {
		if _, err := SchemeByName(name); err == nil {
			t.Errorf("SchemeByName(%q) should be an error", name)
		}
	}
}

// TestSchemeByNameBoundsOLSCStrength pins the strength bound: the largest
// accepted strength builds, and an oversized one is refused without
// building its codec (the refusal is instant and allocates almost
// nothing, where building t=100000 would take gigabytes).
func TestSchemeByNameBoundsOLSCStrength(t *testing.T) {
	if s, err := SchemeByName("killi-olsc31-1:64"); err != nil || s.Name() != "killi-olsc31-1:64" {
		t.Fatalf("killi-olsc31-1:64: %v, %v", s, err)
	}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := SchemeByName("killi-olsc100000-1:64"); err == nil {
			t.Fatal("killi-olsc100000-1:64 accepted")
		}
	})
	if allocs > 10 {
		t.Fatalf("rejecting an oversized strength made %v allocations", allocs)
	}
}
