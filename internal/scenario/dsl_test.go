package scenario

import (
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"polca/internal/workload"
)

// TestBuiltinsAreCanonical pins every builtin's source to its own
// canonical form: Parse then String must reproduce the text byte for
// byte. A builtin's source is its embedded scenarios/*.scn file, so this
// is what keeps name and file forms interchangeable.
func TestBuiltinsAreCanonical(t *testing.T) {
	for _, name := range Names() {
		src, err := BuiltinSource(name)
		if err != nil {
			t.Fatal(err)
		}
		spec, err := Parse(src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if spec.Name != name {
			t.Errorf("%s: spec declares name %q", name, spec.Name)
		}
		if got := spec.String(); got != src {
			t.Errorf("%s: canonical form drifted from source:\n--- source\n%s--- canonical\n%s", name, src, got)
		}
		again, err := Parse(spec.String())
		if err != nil {
			t.Fatalf("%s: reparse: %v", name, err)
		}
		if !reflect.DeepEqual(spec, again) {
			t.Errorf("%s: round trip changed the spec", name)
		}
	}
}

// TestParseCanonicalizesFieldOrder checks that a cohort written with
// scrambled fields renders in the canonical order.
func TestParseCanonicalizesFieldOrder(t *testing.T) {
	src := `scenario x
cohort a output=point(100) sessions=(turns=3,think=10s,grow=0.5) rate=0.1 prompt=logn(300,0.5) slo=sheddable arrivals=weibull(0.7)
`
	spec, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	want := `scenario x
basis 16
cohort a slo=sheddable rate=0.1 arrivals=weibull(0.7) prompt=logn(300,0.5) output=point(100) sessions=(turns=3,think=10s,grow=0.5)
`
	if got := spec.String(); got != want {
		t.Errorf("canonical form:\n%s\nwant:\n%s", got, want)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct{ name, src, want string }{
		{"no header", "cohort a rate=1 prompt=point(10) output=point(10)\n", "before scenario header"},
		{"missing header", "# nothing\n", "missing"},
		{"dup header", "scenario a\nscenario b\n", "duplicate"},
		{"no cohorts", "scenario a\n", "no cohorts"},
		{"dup cohort", "scenario a\ncohort c rate=1 prompt=point(10) output=point(10)\ncohort c rate=1 prompt=point(10) output=point(10)\n", "duplicate cohort"},
		{"bad slo", "scenario a\ncohort c slo=gold rate=1 prompt=point(10) output=point(10)\n", "unknown slo"},
		{"missing rate", "scenario a\ncohort c prompt=point(10) output=point(10)\n", "required"},
		{"unknown field", "scenario a\ncohort c rate=1 prompt=point(10) output=point(10) color=red\n", "unknown field"},
		{"bad dist", "scenario a\ncohort c rate=1 prompt=zipf(10) output=point(10)\n", "unknown distribution"},
		{"bad uniform", "scenario a\ncohort c rate=1 prompt=uniform(100,50) output=point(10)\n", "bad uniform"},
		{"bad shape", "scenario a\ncohort c rate=1 prompt=point(10) output=point(10) shape=square(x=2)\n", "unknown rate shape"},
		{"bad basis", "scenario a\nbasis zero\ncohort c rate=1 prompt=point(10) output=point(10)\n", "bad basis"},
		{"context blowout", "scenario a\ncohort c rate=1 prompt=point(4000) output=point(2000) sessions=(turns=8,think=10s,grow=1)\n", "context cap"},
		{"bad burst", "scenario a\ncohort c rate=1 prompt=point(10) output=point(10) burst=(gap=1h,dur=5m,x=0.5)\n", "burst multiplier"},
		{"unknown directive", "scenario a\nfleet 3\n", "unknown directive"},
	}
	for _, c := range cases {
		if _, err := Parse(c.src); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %v, want substring %q", c.name, err, c.want)
		}
	}
}

func TestSLOClassMapping(t *testing.T) {
	cases := []struct {
		c    SLOClass
		pri  workload.Priority
		rank int
	}{
		{Critical, workload.High, 2},
		{Standard, workload.High, 1},
		{Sheddable, workload.Low, 0},
		{Batch, workload.Low, 0},
	}
	for _, c := range cases {
		if c.c.Priority() != c.pri || c.c.ShedRank() != c.rank {
			t.Errorf("%s: got (%v, %d), want (%v, %d)", c.c, c.c.Priority(), c.c.ShedRank(), c.pri, c.rank)
		}
		back, err := ParseSLOClass(c.c.String())
		if err != nil || back != c.c {
			t.Errorf("%s: name round trip failed (%v, %v)", c.c, back, err)
		}
	}
}

func TestTrimDur(t *testing.T) {
	for _, d := range []time.Duration{0, time.Second, 45 * time.Second, time.Minute,
		90 * time.Minute, 2 * time.Hour, 14 * time.Hour, -6 * time.Hour, 2*time.Hour + 30*time.Minute} {
		s := trimDur(d)
		back, err := time.ParseDuration(s)
		if err != nil || back != d {
			t.Errorf("trimDur(%v) = %q, reparses to (%v, %v)", d, s, back, err)
		}
	}
}

// TestLoadResolvesBuiltinsAndFiles exercises the -scenario argument
// resolution both ways.
func TestLoadResolvesBuiltinsAndFiles(t *testing.T) {
	if _, err := Load("chatbot"); err != nil {
		t.Fatalf("builtin: %v", err)
	}
	if _, err := Load("no-such-scenario"); err == nil || !strings.Contains(err.Error(), "builtins:") {
		t.Fatalf("unknown name: %v", err)
	}
	dir := t.TempDir()
	path := dir + "/mine.scn"
	src := "scenario mine\ncohort only rate=0.5 prompt=point(100) output=point(50)\n"
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	spec, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if spec.Name != "mine" || spec.Basis != DefaultBasis {
		t.Errorf("loaded %q basis %d", spec.Name, spec.Basis)
	}
}

// TestTable6MatchesLegacyMix pins the table6 builtin's compiled classes
// to the hardcoded workload.Table6 moments: same mean tokens, same
// priority split, so the legacy path really is a special case.
func TestTable6MatchesLegacyMix(t *testing.T) {
	spec, err := Builtin("table6")
	if err != nil {
		t.Fatal(err)
	}
	classes := spec.Classes()
	if err := workload.Validate(classes); err != nil {
		t.Fatal(err)
	}
	wantP, wantO := workload.MeanTokens(workload.Table6())
	gotP, gotO := workload.MeanTokens(classes)
	if !within(gotP, wantP, 1e-9) || !within(gotO, wantO, 1e-9) {
		t.Errorf("mean tokens (%v, %v), legacy (%v, %v)", gotP, gotO, wantP, wantO)
	}
	var low float64
	for _, c := range classes {
		low += c.Share * c.LowShare
	}
	if !within(low, 0.5, 1e-9) {
		t.Errorf("low-priority traffic share %v, legacy 0.5", low)
	}
}

func within(a, b, tol float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d <= tol
}
