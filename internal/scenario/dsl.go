package scenario

import (
	"fmt"
	"strconv"
	"strings"
	"time"
)

// The scenario DSL is line-oriented:
//
//	# comment
//	scenario chatbot
//	basis 16
//	cohort chat-na slo=standard rate=0.3 arrivals=gamma(0.5) \
//	    shape=diurnal(peak=14h,amp=0.5) prompt=logn(360,0.7) \
//	    output=logn(180,0.6) sessions=(turns=4,think=45s,grow=0.7) \
//	    prefix=(groups=8,tokens=64)
//
// (shown wrapped; each cohort is one physical line of key=value fields).
// Parse(String(spec)) round-trips through the canonical form: fields in
// the order slo, rate, arrivals, burst, shape, prompt, output, sessions,
// prefix, with defaults (poisson arrivals, flat shape, absent overlays)
// elided — the same convention the faults DSL uses.

// Parse parses and validates a scenario spec from its DSL text.
func Parse(src string) (Spec, error) {
	var spec Spec
	sawHeader := false
	for ln, raw := range strings.Split(src, "\n") {
		line := strings.TrimSpace(raw)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		switch fields[0] {
		case "scenario":
			if sawHeader {
				return Spec{}, fmt.Errorf("scenario: line %d: duplicate scenario header", ln+1)
			}
			if len(fields) != 2 {
				return Spec{}, fmt.Errorf("scenario: line %d: want \"scenario <name>\"", ln+1)
			}
			spec.Name = fields[1]
			sawHeader = true
		case "basis":
			if !sawHeader {
				return Spec{}, fmt.Errorf("scenario: line %d: basis before scenario header", ln+1)
			}
			if len(fields) != 2 {
				return Spec{}, fmt.Errorf("scenario: line %d: want \"basis <servers>\"", ln+1)
			}
			n, err := strconv.Atoi(fields[1])
			if err != nil {
				return Spec{}, fmt.Errorf("scenario: line %d: bad basis %q", ln+1, fields[1])
			}
			spec.Basis = n
		case "cohort":
			if !sawHeader {
				return Spec{}, fmt.Errorf("scenario: line %d: cohort before scenario header", ln+1)
			}
			c, err := parseCohort(fields[1:])
			if err != nil {
				return Spec{}, fmt.Errorf("scenario: line %d: %v", ln+1, err)
			}
			spec.Cohorts = append(spec.Cohorts, c)
		default:
			return Spec{}, fmt.Errorf("scenario: line %d: unknown directive %q", ln+1, fields[0])
		}
	}
	if !sawHeader {
		return Spec{}, fmt.Errorf("scenario: missing \"scenario <name>\" header")
	}
	if spec.Basis == 0 {
		spec.Basis = DefaultBasis
	}
	if err := spec.Validate(); err != nil {
		return Spec{}, err
	}
	return spec, nil
}

func parseCohort(fields []string) (Cohort, error) {
	if len(fields) < 1 {
		return Cohort{}, fmt.Errorf("want \"cohort <name> key=value...\"")
	}
	c := Cohort{Name: fields[0]}
	var sawRate, sawPrompt, sawOutput bool
	for _, f := range fields[1:] {
		key, val, ok := strings.Cut(f, "=")
		if !ok {
			return Cohort{}, fmt.Errorf("cohort %s: field %q is not key=value", c.Name, f)
		}
		var err error
		switch key {
		case "slo":
			c.SLO, err = ParseSLOClass(val)
		case "rate":
			c.Rate, err = parseFloat(val)
			sawRate = true
		case "arrivals":
			c.Arrivals, err = parseArrivals(val)
		case "burst":
			var b Burst
			if b, err = parseBurst(val); err == nil {
				c.Burst = &b
			}
		case "shape":
			c.Shape, err = parseShape(val)
		case "prompt":
			c.Prompt, err = parseDist(val)
			sawPrompt = true
		case "output":
			c.Output, err = parseDist(val)
			sawOutput = true
		case "sessions":
			var s Sessions
			if s, err = parseSessions(val); err == nil {
				c.Sessions = &s
			}
		case "prefix":
			var p Prefix
			if p, err = parsePrefix(val); err == nil {
				c.Prefix = &p
			}
		default:
			return Cohort{}, fmt.Errorf("cohort %s: unknown field %q", c.Name, key)
		}
		if err != nil {
			return Cohort{}, fmt.Errorf("cohort %s: %s: %v", c.Name, key, err)
		}
	}
	if !sawRate || !sawPrompt || !sawOutput {
		return Cohort{}, fmt.Errorf("cohort %s: rate, prompt, and output are required", c.Name)
	}
	return c, nil
}

// parseCall splits "name(a,b,...)" or a bare "name" into its parts.
func parseCall(s string) (name string, args []string, err error) {
	open := strings.IndexByte(s, '(')
	if open < 0 {
		return s, nil, nil
	}
	if !strings.HasSuffix(s, ")") {
		return "", nil, fmt.Errorf("unbalanced parens in %q", s)
	}
	name = s[:open]
	body := s[open+1 : len(s)-1]
	if body != "" {
		args = strings.Split(body, ",")
	}
	return name, args, nil
}

// parseKVArgs parses "(k=v,k=v)" bodies, enforcing the allowed keys.
func parseKVArgs(s string, into map[string]string) error {
	if !strings.HasPrefix(s, "(") || !strings.HasSuffix(s, ")") {
		return fmt.Errorf("want (key=value,...) in %q", s)
	}
	body := s[1 : len(s)-1]
	if body == "" {
		return fmt.Errorf("empty argument list")
	}
	for _, f := range strings.Split(body, ",") {
		key, val, ok := strings.Cut(f, "=")
		if !ok {
			return fmt.Errorf("argument %q is not key=value", f)
		}
		if _, allowed := into[key]; !allowed {
			return fmt.Errorf("unknown argument %q", key)
		}
		into[key] = val
	}
	return nil
}

func parseFloat(s string) (float64, error) {
	f, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, fmt.Errorf("bad number %q", s)
	}
	return f, nil
}

func parseArrivals(s string) (Arrivals, error) {
	name, args, err := parseCall(s)
	if err != nil {
		return Arrivals{}, err
	}
	switch name {
	case "poisson":
		if len(args) != 0 {
			return Arrivals{}, fmt.Errorf("poisson takes no arguments")
		}
		return Arrivals{Kind: ArrPoisson}, nil
	case "gamma", "weibull":
		if len(args) != 1 {
			return Arrivals{}, fmt.Errorf("%s wants one shape argument", name)
		}
		k, err := parseFloat(args[0])
		if err != nil {
			return Arrivals{}, err
		}
		kind := ArrGamma
		if name == "weibull" {
			kind = ArrWeibull
		}
		return Arrivals{Kind: kind, Shape: k}, nil
	default:
		return Arrivals{}, fmt.Errorf("unknown arrival process %q", name)
	}
}

func parseDist(s string) (TokenDist, error) {
	name, args, err := parseCall(s)
	if err != nil {
		return TokenDist{}, err
	}
	want := map[string]struct {
		kind DistKind
		n    int
	}{
		"uniform": {DistUniform, 2},
		"logn":    {DistLogNormal, 2},
		"point":   {DistPoint, 1},
	}
	w, ok := want[name]
	if !ok {
		return TokenDist{}, fmt.Errorf("unknown distribution %q", name)
	}
	if len(args) != w.n {
		return TokenDist{}, fmt.Errorf("%s wants %d arguments", name, w.n)
	}
	d := TokenDist{Kind: w.kind}
	if d.A, err = parseFloat(args[0]); err != nil {
		return TokenDist{}, err
	}
	if w.n == 2 {
		if d.B, err = parseFloat(args[1]); err != nil {
			return TokenDist{}, err
		}
	}
	return d, nil
}

func parseShape(s string) (RateShape, error) {
	name, _, err := parseCall(s)
	if err != nil {
		return RateShape{}, err
	}
	switch name {
	case "flat":
		if s != "flat" {
			return RateShape{}, fmt.Errorf("flat takes no arguments")
		}
		return RateShape{Kind: ShapeFlat}, nil
	case "diurnal":
		kv := map[string]string{"peak": "", "amp": "", "offset": ""}
		if err := parseKVArgs(s[len(name):], kv); err != nil {
			return RateShape{}, err
		}
		sh := RateShape{Kind: ShapeDiurnal}
		if sh.Peak, err = reqDur(kv, "peak"); err != nil {
			return RateShape{}, err
		}
		if sh.Amp, err = reqFloat(kv, "amp"); err != nil {
			return RateShape{}, err
		}
		if kv["offset"] != "" {
			if sh.Offset, err = time.ParseDuration(kv["offset"]); err != nil {
				return RateShape{}, fmt.Errorf("bad offset %q", kv["offset"])
			}
		}
		return sh, nil
	case "ramp":
		kv := map[string]string{"at": "", "over": "", "x": ""}
		if err := parseKVArgs(s[len(name):], kv); err != nil {
			return RateShape{}, err
		}
		sh := RateShape{Kind: ShapeRamp}
		if sh.At, err = reqDur(kv, "at"); err != nil {
			return RateShape{}, err
		}
		if sh.Over, err = reqDur(kv, "over"); err != nil {
			return RateShape{}, err
		}
		if sh.X, err = reqFloat(kv, "x"); err != nil {
			return RateShape{}, err
		}
		return sh, nil
	case "spike":
		kv := map[string]string{"at": "", "x": "", "rise": "", "fall": ""}
		if err := parseKVArgs(s[len(name):], kv); err != nil {
			return RateShape{}, err
		}
		sh := RateShape{Kind: ShapeSpike}
		if sh.At, err = reqDur(kv, "at"); err != nil {
			return RateShape{}, err
		}
		if sh.X, err = reqFloat(kv, "x"); err != nil {
			return RateShape{}, err
		}
		if sh.Rise, err = reqDur(kv, "rise"); err != nil {
			return RateShape{}, err
		}
		if sh.Fall, err = reqDur(kv, "fall"); err != nil {
			return RateShape{}, err
		}
		return sh, nil
	default:
		return RateShape{}, fmt.Errorf("unknown rate shape %q", name)
	}
}

func parseBurst(s string) (Burst, error) {
	kv := map[string]string{"gap": "", "dur": "", "x": ""}
	if err := parseKVArgs(s, kv); err != nil {
		return Burst{}, err
	}
	var b Burst
	var err error
	if b.Gap, err = reqDur(kv, "gap"); err != nil {
		return Burst{}, err
	}
	if b.Dur, err = reqDur(kv, "dur"); err != nil {
		return Burst{}, err
	}
	if b.X, err = reqFloat(kv, "x"); err != nil {
		return Burst{}, err
	}
	return b, nil
}

func parseSessions(s string) (Sessions, error) {
	kv := map[string]string{"turns": "", "think": "", "grow": ""}
	if err := parseKVArgs(s, kv); err != nil {
		return Sessions{}, err
	}
	var out Sessions
	var err error
	if out.Turns, err = reqFloat(kv, "turns"); err != nil {
		return Sessions{}, err
	}
	if out.Think, err = reqDur(kv, "think"); err != nil {
		return Sessions{}, err
	}
	if out.Grow, err = reqFloat(kv, "grow"); err != nil {
		return Sessions{}, err
	}
	return out, nil
}

func parsePrefix(s string) (Prefix, error) {
	kv := map[string]string{"groups": "", "tokens": ""}
	if err := parseKVArgs(s, kv); err != nil {
		return Prefix{}, err
	}
	var p Prefix
	for _, key := range []string{"groups", "tokens"} {
		if kv[key] == "" {
			return Prefix{}, fmt.Errorf("missing %s", key)
		}
		n, err := strconv.Atoi(kv[key])
		if err != nil {
			return Prefix{}, fmt.Errorf("bad %s %q", key, kv[key])
		}
		if key == "groups" {
			p.Groups = n
		} else {
			p.Tokens = n
		}
	}
	return p, nil
}

func reqFloat(kv map[string]string, key string) (float64, error) {
	if kv[key] == "" {
		return 0, fmt.Errorf("missing %s", key)
	}
	return parseFloat(kv[key])
}

func reqDur(kv map[string]string, key string) (time.Duration, error) {
	if kv[key] == "" {
		return 0, fmt.Errorf("missing %s", key)
	}
	d, err := time.ParseDuration(kv[key])
	if err != nil {
		return 0, fmt.Errorf("bad %s %q", key, kv[key])
	}
	return d, nil
}

// String renders the spec in canonical DSL form: Parse(spec.String())
// reproduces the spec exactly, and every builtin scenarios/*.scn file is
// its own canonical form (TestBuiltinsAreCanonical).
func (s Spec) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "scenario %s\n", s.Name)
	fmt.Fprintf(&b, "basis %d\n", s.Basis)
	for _, c := range s.Cohorts {
		fmt.Fprintf(&b, "cohort %s slo=%s rate=%s", c.Name, c.SLO, trimFloat(c.Rate))
		if c.Arrivals.Kind != ArrPoisson {
			fmt.Fprintf(&b, " arrivals=%s", c.Arrivals)
		}
		if c.Burst != nil {
			fmt.Fprintf(&b, " burst=%s", c.Burst)
		}
		if c.Shape.Kind != ShapeFlat {
			fmt.Fprintf(&b, " shape=%s", c.Shape)
		}
		fmt.Fprintf(&b, " prompt=%s output=%s", c.Prompt, c.Output)
		if c.Sessions != nil {
			fmt.Fprintf(&b, " sessions=%s", c.Sessions)
		}
		if c.Prefix != nil {
			fmt.Fprintf(&b, " prefix=%s", c.Prefix)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// trimFloat renders a float compactly ("0.5", "8", "1e-05").
func trimFloat(f float64) string {
	return strconv.FormatFloat(f, 'g', -1, 64)
}

// trimDur renders a duration compactly: "2h" rather than "2h0m0s".
func trimDur(d time.Duration) string {
	s := d.String()
	if strings.HasSuffix(s, "m0s") {
		s = s[:len(s)-2]
	}
	if strings.HasSuffix(s, "h0m") {
		s = s[:len(s)-2]
	}
	return s
}
