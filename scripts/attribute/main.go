// attribute turns a CPU profile of a live shard into the per-request
// attribution table of DESIGN.md §8: each sample goes to the first row, top
// to bottom, one of whose patterns matches a frame of its stack, and each
// row is printed in µs of CPU per request and as a share of all rows.
//
//	go tool pprof -traces itask-serve cpu.prof > traces.txt
//	go run ./scripts/attribute -traces traces.txt -requests 81234 -raw-cpu-us 195.5
//
// -requests is the number of requests the shard accepted in the profile's
// window (two /metricsz scrapes), -raw-cpu-us the run's raw.cpu_us_per_req,
// printed beside the sum of the rows. The rules are rules.txt beside this
// file: one row a line, "name | pattern pattern ...". A pattern is a
// path.Match glob against a frame's function name or any suffix of it that
// starts after a '/', so "wire.DecodeDetect" matches
// "itask/internal/wire.DecodeDetect" and "net/http.*" matches
// "net/http.(*conn).serve" but not "itask/internal/wire.ReadBody". A sample
// no row matches is "other".
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"path"
	"strings"
	"time"
)

// row is one line of the table: its name, its patterns, and the CPU time
// its samples add up to.
type row struct {
	name     string
	patterns []string
	total    time.Duration
}

// sample is one stack of a -traces listing, leaf first, and its CPU time.
type sample struct {
	value  time.Duration
	frames []string
}

func main() {
	var (
		traces   = flag.String("traces", "-", "go tool pprof -traces output (- for stdin)")
		rules    = flag.String("rules", "scripts/attribute/rules.txt", "the ordered row rules")
		requests = flag.Int("requests", 0, "requests accepted in the profile's window")
		raw      = flag.Float64("raw-cpu-us", 0, "the run's raw.cpu_us_per_req (0: not printed)")
	)
	flag.Parse()
	if *requests <= 0 {
		fail(fmt.Errorf("-requests must be positive"))
	}
	rf, err := os.Open(*rules)
	if err != nil {
		fail(err)
	}
	rows, err := parseRules(rf)
	rf.Close()
	if err != nil {
		fail(err)
	}
	in := os.Stdin
	if *traces != "-" {
		if in, err = os.Open(*traces); err != nil {
			fail(err)
		}
	}
	samples, err := parseTraces(in)
	if err != nil {
		fail(err)
	}
	rows = attribute(rows, samples)
	writeTable(os.Stdout, rows, *requests, *raw)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "attribute:", err)
	os.Exit(1)
}

// parseRules reads "name | pattern ..." lines; blank lines and lines
// starting with # are skipped. "other" is appended as the last row.
func parseRules(r io.Reader) ([]row, error) {
	var rows []row
	sc := bufio.NewScanner(r)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, pats, ok := strings.Cut(line, "|")
		if !ok || strings.TrimSpace(name) == "" || len(strings.Fields(pats)) == 0 {
			return nil, fmt.Errorf("rules line %d: want \"name | pattern ...\"", n)
		}
		for _, p := range strings.Fields(pats) {
			if _, err := path.Match(p, ""); err != nil {
				return nil, fmt.Errorf("rules line %d: pattern %q: %v", n, p, err)
			}
		}
		rows = append(rows, row{name: strings.TrimSpace(name), patterns: strings.Fields(pats)})
	}
	return append(rows, row{name: "other"}), sc.Err()
}

// parseTraces reads go tool pprof -traces text: a header, then blocks
// separated by "-----------+----" lines, each a value and the leaf frame on
// its first line and one caller a line after it.
func parseTraces(r io.Reader) ([]sample, error) {
	var (
		out []sample
		cur *sample
	)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "-----------+"):
			out = append(out, sample{})
			cur = &out[len(out)-1]
		case cur == nil || strings.TrimSpace(line) == "":
			// the header, or the gap before the next separator
		case len(cur.frames) == 0:
			f := strings.Fields(line)
			if len(f) < 2 {
				return nil, fmt.Errorf("trace line %q: want a value and a frame", line)
			}
			v, err := time.ParseDuration(f[0])
			if err != nil {
				return nil, fmt.Errorf("trace line %q: %v", line, err)
			}
			cur.value, cur.frames = v, []string{f[1]}
		default:
			cur.frames = append(cur.frames, strings.Fields(line)[0])
		}
	}
	// Drop the empty block after the last separator.
	kept := out[:0]
	for _, s := range out {
		if len(s.frames) > 0 {
			kept = append(kept, s)
		}
	}
	return kept, sc.Err()
}

// attribute gives each sample to the first row with a pattern matching one
// of its frames, the last row ("other") when none does.
func attribute(rows []row, samples []sample) []row {
	for _, s := range samples {
		i := 0
		for ; i < len(rows)-1; i++ {
			if rows[i].matches(s.frames) {
				break
			}
		}
		rows[i].total += s.value
	}
	return rows
}

func (r row) matches(frames []string) bool {
	for _, f := range frames {
		for _, p := range r.patterns {
			if matchFrame(p, f) {
				return true
			}
		}
	}
	return false
}

// matchFrame matches p against the frame's name and every suffix of it that
// starts after a '/'.
func matchFrame(p, frame string) bool {
	for {
		if ok, _ := path.Match(p, frame); ok {
			return true
		}
		i := strings.IndexByte(frame, '/')
		if i < 0 {
			return false
		}
		frame = frame[i+1:]
	}
}

func writeTable(w io.Writer, rows []row, requests int, raw float64) {
	var sum time.Duration
	for _, r := range rows {
		sum += r.total
	}
	us := func(d time.Duration) float64 { return float64(d.Microseconds()) / float64(requests) }
	fmt.Fprintln(w, "| row | µs/request | share |")
	fmt.Fprintln(w, "|---|---|---|")
	for _, r := range rows {
		share := 0.0
		if sum > 0 {
			share = 100 * float64(r.total) / float64(sum)
		}
		fmt.Fprintf(w, "| %s | %.1f | %.1f %% |\n", r.name, us(r.total), share)
	}
	fmt.Fprintf(w, "| **sum of rows** | **%.1f** | |\n", us(sum))
	if raw > 0 {
		fmt.Fprintf(w, "| run's `raw.cpu_us_per_req` | %.1f (rows %+.0f %%) | |\n", raw, 100*(us(sum)-raw)/raw)
	}
}
