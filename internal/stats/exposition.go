package stats

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// Prometheus text exposition (version 0.0.4) over a registry snapshot.
//
// Metric names may carry labels inline — `LabeledName` builds
// `base{k="v",...}` strings, and the registry treats each distinct
// labeled name as its own counter/gauge/histogram. The renderer groups
// labeled series under one `# TYPE base <type>` header and, for
// histograms, splices the `le` label into the existing label set, so the
// output parses as standard Prometheus histograms with cumulative
// buckets plus `_sum` and `_count`.

// LabeledName renders base{k1="v1",k2="v2",...} from alternating
// key/value pairs. Values are escaped per the exposition format
// (backslash, double-quote, newline). With no pairs it returns base
// unchanged.
func LabeledName(base string, kv ...string) string {
	if len(kv) == 0 {
		return base
	}
	var b strings.Builder
	b.WriteString(base)
	b.WriteByte('{')
	for i := 0; i+1 < len(kv); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(kv[i])
		b.WriteString(`="`)
		b.WriteString(escapeLabel(kv[i+1]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// splitName separates a (possibly labeled) metric name into its base and
// the raw label body (without braces; empty when unlabeled).
func splitName(name string) (base, labels string) {
	if i := strings.IndexByte(name, '{'); i >= 0 && strings.HasSuffix(name, "}") {
		return name[:i], name[i+1 : len(name)-1]
	}
	return name, ""
}

// withLE appends the le label to an existing label body.
func withLE(labels, le string) string {
	if labels == "" {
		return `le="` + le + `"`
	}
	return labels + `,le="` + le + `"`
}

// formatLE renders a bucket bound in seconds the way Prometheus clients
// conventionally do: a minimal decimal ("0.005", "1", "2.5").
func formatLE(seconds float64) string {
	return strconv.FormatFloat(seconds, 'g', -1, 64)
}

// sanitizeBase maps a registry name onto the exposition name charset
// [a-zA-Z_:][a-zA-Z0-9_:]*. Registry names are already snake_case; this
// is a guard against future additions, not a transliteration layer.
func sanitizeBase(name string) string {
	var b []byte
	for i := 0; i < len(name); i++ {
		c := name[i]
		ok := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(c >= '0' && c <= '9' && i > 0)
		if ok {
			b = append(b, c)
		} else {
			b = append(b, '_')
		}
	}
	if len(b) == 0 {
		return "_"
	}
	return string(b)
}

// series is one renderable line: a full labeled name and its value.
type series struct {
	labels string
	value  string
}

// writeFamily emits one `# TYPE` header and its series, sorted by label
// set for deterministic scrapes.
func writeFamily(w io.Writer, base, typ string, ss []series) {
	sort.Slice(ss, func(i, j int) bool { return ss[i].labels < ss[j].labels })
	fmt.Fprintf(w, "# TYPE %s %s\n", base, typ)
	for _, s := range ss {
		if s.labels == "" {
			fmt.Fprintf(w, "%s %s\n", base, s.value)
		} else {
			fmt.Fprintf(w, "%s{%s} %s\n", base, s.labels, s.value)
		}
	}
}

// WriteText renders the snapshot in Prometheus text exposition format.
// Counters render as counters, gauges as gauges, and histograms as
// `<base>_seconds` histograms with the fixed bucket ladder (durations
// converted to seconds), `_sum` and `_count`. One snapshot in, one
// scrape out: callers that serve both a JSON stats surface and /metrics
// should render both from the same Snapshot value so the two never
// disagree mid-scrape.
func (s Snapshot) WriteText(w io.Writer) {
	type family struct {
		typ string
		ss  []series
	}
	fams := make(map[string]*family)
	add := func(name, typ, value string) {
		base, labels := splitName(name)
		base = sanitizeBase(base)
		f, ok := fams[base]
		if !ok {
			f = &family{typ: typ}
			fams[base] = f
		}
		f.ss = append(f.ss, series{labels: labels, value: value})
	}
	for name, v := range s.Counters {
		add(name, "counter", strconv.FormatInt(v, 10))
	}
	for name, v := range s.Gauges {
		add(name, "gauge", strconv.FormatInt(v, 10))
	}

	// Histogram families render expanded: per-snapshot-entry bucket,
	// sum and count series, all grouped under one _seconds base.
	type histEntry struct {
		labels string
		h      HistogramSummary
	}
	hists := make(map[string][]histEntry)
	for name, h := range s.Histograms {
		base, labels := splitName(name)
		base = sanitizeBase(base) + "_seconds"
		hists[base] = append(hists[base], histEntry{labels: labels, h: h})
	}

	bases := make([]string, 0, len(fams)+len(hists))
	for b := range fams {
		bases = append(bases, b)
	}
	for b := range hists {
		bases = append(bases, b)
	}
	sort.Strings(bases)

	for _, base := range bases {
		if f, ok := fams[base]; ok {
			writeFamily(w, base, f.typ, f.ss)
			continue
		}
		entries := hists[base]
		sort.Slice(entries, func(i, j int) bool { return entries[i].labels < entries[j].labels })
		fmt.Fprintf(w, "# TYPE %s histogram\n", base)
		for _, e := range entries {
			for _, b := range e.h.Buckets {
				fmt.Fprintf(w, "%s_bucket{%s} %d\n",
					base, withLE(e.labels, formatLE(b.UpperBound.Seconds())), b.Count)
			}
			fmt.Fprintf(w, "%s_bucket{%s} %d\n", base, withLE(e.labels, "+Inf"), e.h.Count)
			if e.labels == "" {
				fmt.Fprintf(w, "%s_sum %s\n", base, formatLE(e.h.Sum.Seconds()))
				fmt.Fprintf(w, "%s_count %d\n", base, e.h.Count)
			} else {
				fmt.Fprintf(w, "%s_sum{%s} %s\n", base, e.labels, formatLE(e.h.Sum.Seconds()))
				fmt.Fprintf(w, "%s_count{%s} %d\n", base, e.labels, e.h.Count)
			}
		}
	}
}

// ValidateExposition checks that r is plausible Prometheus text
// exposition: every non-empty line is a comment or `name[{labels}]
// value [timestamp]` with a well-formed name, balanced label braces and
// a parseable float value. It is the assertion the gateway smoke tests
// run against a live /metrics scrape; it is not a full grammar.
func ValidateExposition(r io.Reader) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	lineNo := 0
	sawSeries := false
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name := line
		rest := ""
		if i := strings.IndexByte(line, '{'); i >= 0 {
			j := strings.IndexByte(line, '}')
			if j < i {
				return fmt.Errorf("exposition line %d: unbalanced label braces: %q", lineNo, line)
			}
			name = line[:i]
			body := line[i+1 : j]
			if body != "" {
				for _, pair := range splitLabels(body) {
					k, v, ok := strings.Cut(pair, "=")
					if !ok || k == "" || !validName(k) || len(v) < 2 || v[0] != '"' || v[len(v)-1] != '"' {
						return fmt.Errorf("exposition line %d: bad label %q", lineNo, pair)
					}
				}
			}
			rest = strings.TrimSpace(line[j+1:])
		} else {
			fields := strings.Fields(line)
			if len(fields) < 2 {
				return fmt.Errorf("exposition line %d: want `name value`: %q", lineNo, line)
			}
			name = fields[0]
			rest = strings.Join(fields[1:], " ")
		}
		if !validName(name) {
			return fmt.Errorf("exposition line %d: bad metric name %q", lineNo, name)
		}
		fields := strings.Fields(rest)
		if len(fields) < 1 || len(fields) > 2 {
			return fmt.Errorf("exposition line %d: want `value [timestamp]`, got %q", lineNo, rest)
		}
		if _, err := strconv.ParseFloat(fields[0], 64); err != nil && fields[0] != "+Inf" && fields[0] != "-Inf" && fields[0] != "NaN" {
			return fmt.Errorf("exposition line %d: bad value %q", lineNo, fields[0])
		}
		sawSeries = true
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if !sawSeries {
		return fmt.Errorf("exposition: no metric series found")
	}
	return nil
}

// splitLabels splits a label body on commas outside quoted values.
func splitLabels(body string) []string {
	var out []string
	depth := false
	start := 0
	for i := 0; i < len(body); i++ {
		switch body[i] {
		case '"':
			if i == 0 || body[i-1] != '\\' {
				depth = !depth
			}
		case ',':
			if !depth {
				out = append(out, body[start:i])
				start = i + 1
			}
		}
	}
	if start < len(body) {
		out = append(out, body[start:])
	}
	return out
}

// validName reports whether s matches [a-zA-Z_:][a-zA-Z0-9_:]*.
func validName(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c == '_' || c == ':':
		case c >= 'a' && c <= 'z':
		case c >= 'A' && c <= 'Z':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}
