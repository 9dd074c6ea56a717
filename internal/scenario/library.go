package scenario

import (
	"fmt"
	"os"
	"sort"
	"strings"

	"polca/scenarios"
)

// The builtin library is the scenarios package's embedded .scn files,
// each a scenario's canonical DSL source, read when asked for rather than
// into a table at init. The package doc describes each builtin.

// Names returns the builtin scenario names, sorted.
func Names() []string {
	ents, err := scenarios.Files.ReadDir(".")
	if err != nil {
		panic(err) // the embedded root always exists
	}
	out := make([]string, 0, len(ents))
	for _, e := range ents {
		out = append(out, strings.TrimSuffix(e.Name(), ".scn"))
	}
	sort.Strings(out)
	return out
}

// source returns the named builtin's canonical DSL text.
func source(name string) (string, bool) {
	data, err := scenarios.Files.ReadFile(name + ".scn")
	return string(data), err == nil
}

// Builtin returns the named builtin scenario.
func Builtin(name string) (Spec, error) {
	src, ok := source(name)
	if !ok {
		return Spec{}, fmt.Errorf("scenario: unknown scenario %q (have %s)", name, strings.Join(Names(), ", "))
	}
	return Parse(src)
}

// BuiltinSource returns the canonical DSL text of a builtin: the bytes of
// its scenarios/<name>.scn file.
func BuiltinSource(name string) (string, error) {
	src, ok := source(name)
	if !ok {
		return "", fmt.Errorf("scenario: unknown scenario %q", name)
	}
	return src, nil
}

// Load resolves a -scenario argument: a builtin name, or a path to a .scn
// file when the argument names no builtin (or looks like a path).
func Load(arg string) (Spec, error) {
	if src, ok := source(arg); ok {
		return Parse(src)
	}
	data, err := os.ReadFile(arg)
	if err != nil {
		if !strings.ContainsAny(arg, "/.") {
			return Spec{}, fmt.Errorf("scenario: unknown scenario %q (builtins: %s)", arg, strings.Join(Names(), ", "))
		}
		return Spec{}, fmt.Errorf("scenario: %v", err)
	}
	spec, err := Parse(string(data))
	if err != nil {
		return Spec{}, fmt.Errorf("%v (file %s)", err, arg)
	}
	return spec, nil
}
