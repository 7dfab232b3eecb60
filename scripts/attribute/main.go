// attribute turns CPU profiles of live processes into the per-request
// attribution tables of DESIGN.md §8 and §12: each sample goes to the first
// row, top to bottom, one of whose patterns matches a frame of its stack,
// and each row is printed in µs of CPU per request and as a share of all
// rows.
//
//	go tool pprof -traces itask-serve cpu.prof > traces.txt
//	go run ./scripts/attribute -traces traces.txt -requests 81234 -raw-cpu-us 195.5
//
// -traces takes one file or a comma-separated list: a fleet's gateway and
// shards profiled over the same window make one table, the rows of each
// process named after it and the shards' samples added together. Each file
// is attributed by the rules of its process, the section of the rules file
// whose name begins the "File:" line pprof writes at its top.
//
// -requests is the number of requests in the profiles' window (two
// /metricsz scrapes: a shard's accepted count, a fleet's gateway routed
// count), -raw-cpu-us the run's raw.cpu_us_per_req, printed beside the sum
// of the rows. The rules are rules.txt beside this file: a "[process]" line
// opens a section, then one row a line, "name | pattern pattern ...". A
// pattern is a path.Match glob against a frame's function name or any suffix
// of it that starts after a '/', so "wire.DecodeDetect" matches
// "itask/internal/wire.DecodeDetect" and "net/http.*" matches
// "net/http.(*conn).serve" but not "itask/internal/wire.ReadBody". A sample
// no row of its section matches is that section's "other".
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"path"
	"slices"
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

// section is one process's rows.
type section struct {
	process string
	rows    []row
}

// sample is one stack of a -traces listing, leaf first, and its CPU time.
type sample struct {
	value  time.Duration
	frames []string
}

func main() {
	var (
		traces   = flag.String("traces", "-", "go tool pprof -traces output, or a comma-separated list of them (- for stdin)")
		rules    = flag.String("rules", "scripts/attribute/rules.txt", "the ordered row rules")
		requests = flag.Int("requests", 0, "requests in the profiles' window")
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
	sections, err := parseRules(rf)
	rf.Close()
	if err != nil {
		fail(err)
	}
	var used []*section
	for _, name := range strings.Split(*traces, ",") {
		in := os.Stdin
		if name != "-" {
			if in, err = os.Open(name); err != nil {
				fail(err)
			}
		}
		file, samples, err := parseTraces(in)
		in.Close()
		if err != nil {
			fail(fmt.Errorf("%s: %v", name, err))
		}
		sec := sectionFor(sections, file)
		if sec == nil {
			fail(fmt.Errorf("%s: no rules section for File: %q", name, file))
		}
		attribute(sec.rows, samples)
		if !slices.Contains(used, sec) {
			used = append(used, sec)
		}
	}
	writeTable(os.Stdout, tableRows(used), *requests, *raw)
}

// sectionFor picks the section whose process name begins file, the longest
// such name if several do.
func sectionFor(sections []section, file string) *section {
	var best *section
	for i := range sections {
		s := &sections[i]
		if strings.HasPrefix(file, s.process) && (best == nil || len(s.process) > len(best.process)) {
			best = s
		}
	}
	return best
}

// tableRows lists the rows of the sections used, each named after its
// process when more than one process is in the table.
func tableRows(used []*section) []row {
	var out []row
	for _, s := range used {
		for _, r := range s.rows {
			if len(used) > 1 {
				r.name = s.process + ": " + r.name
			}
			out = append(out, r)
		}
	}
	return out
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "attribute:", err)
	os.Exit(1)
}

// parseRules reads "[process]" section lines and "name | pattern ..." row
// lines; blank lines and lines starting with # are skipped. Every section
// ends with an "other" row.
func parseRules(r io.Reader) ([]section, error) {
	var secs []section
	sc := bufio.NewScanner(r)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		switch {
		case line == "" || strings.HasPrefix(line, "#"):
			continue
		case strings.HasPrefix(line, "[") && strings.HasSuffix(line, "]"):
			secs = append(secs, section{process: strings.TrimSpace(line[1 : len(line)-1])})
			continue
		case len(secs) == 0:
			return nil, fmt.Errorf("rules line %d: a row before any [process] line", n)
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
		s := &secs[len(secs)-1]
		s.rows = append(s.rows, row{name: strings.TrimSpace(name), patterns: strings.Fields(pats)})
	}
	for i := range secs {
		secs[i].rows = append(secs[i].rows, row{name: "other"})
	}
	return secs, sc.Err()
}

// parseTraces reads go tool pprof -traces text: a header, whose "File:"
// line names the profiled binary, then blocks separated by
// "-----------+----" lines, each a value and the leaf frame on its first
// line and one caller a line after it.
func parseTraces(r io.Reader) (file string, _ []sample, _ error) {
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
		case cur == nil:
			if f, ok := strings.CutPrefix(line, "File: "); ok {
				file = strings.TrimSpace(f)
			}
		case strings.TrimSpace(line) == "":
			// the gap before the next separator
		case len(cur.frames) == 0:
			f := strings.Fields(line)
			if len(f) < 2 {
				return "", nil, fmt.Errorf("trace line %q: want a value and a frame", line)
			}
			v, err := time.ParseDuration(f[0])
			if err != nil {
				return "", nil, fmt.Errorf("trace line %q: %v", line, err)
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
	return file, kept, sc.Err()
}

// attribute adds each sample to the first row with a pattern matching one
// of its frames, the last row ("other") when none does.
func attribute(rows []row, samples []sample) {
	for _, s := range samples {
		i := 0
		for ; i < len(rows)-1; i++ {
			if rows[i].matches(s.frames) {
				break
			}
		}
		rows[i].total += s.value
	}
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
