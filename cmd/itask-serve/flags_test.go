package main

import (
	"flag"
	"io"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"itask/internal/serve"
)

// The flag surface: no flags serve exactly serve.DefaultConfig(), each flag
// moves exactly the field it names, and the flags nothing set are gone.
func TestFlagSurface(t *testing.T) {
	parseArgs := func(args ...string) (options, error) {
		flags := flag.NewFlagSet("itask-serve", flag.ContinueOnError)
		flags.SetOutput(io.Discard)
		return parseFlags(flags, args)
	}
	def := options{cfg: serve.DefaultConfig(), addr: ":8080"}
	got, err := parseArgs()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, def) {
		t.Fatalf("no flags: %+v, want %+v", got, def)
	}
	if got.cfg.Workers != runtime.GOMAXPROCS(0) {
		t.Errorf("default Workers = %d, want GOMAXPROCS %d", got.cfg.Workers, runtime.GOMAXPROCS(0))
	}

	for _, tc := range []struct {
		args []string
		set  func(*options)
	}{
		{[]string{"-addr", "127.0.0.1:1"}, func(o *options) { o.addr = "127.0.0.1:1" }},
		{[]string{"-models", "m"}, func(o *options) { o.models = "m" }},
		{[]string{"-students"}, func(o *options) { o.students = true }},
		{[]string{"-workers", "3"}, func(o *options) { o.cfg.Workers = 3 }},
		{[]string{"-slo", "50ms"}, func(o *options) { o.cfg.LatencySLO = 50 * time.Millisecond }},
		// The verify skill's way to turn the cache off: the default hot
		// threshold rides along without a cache to sit in.
		{[]string{"-cache-bytes", "0"}, func(o *options) { o.cfg.CacheBytes = 0 }},
		{[]string{"-neg-ttl", "2s"}, func(o *options) { o.cfg.NegativeTTL = 2 * time.Second }},
		{[]string{"-hot-threshold", "0"}, func(o *options) { o.cfg.HotThreshold = 0 }},
		{[]string{"-tenant-weights", "gold=4,free=1"}, func(o *options) { o.cfg.TenantWeights = map[string]int{"gold": 4, "free": 1} }},
		{[]string{"-tenant-rate", "50"}, func(o *options) { o.cfg.TenantRate = 50 }},
		{[]string{"-tenant-burst", "100"}, func(o *options) { o.cfg.TenantBurst = 100 }},
		{[]string{"-pprof", "127.0.0.1:2"}, func(o *options) { o.pprofAddr = "127.0.0.1:2" }},
		{[]string{"-announce", "http://gw"}, func(o *options) { o.announce = "http://gw" }},
		{[]string{"-advertise", "http://me"}, func(o *options) { o.advertise = "http://me" }},
	} {
		want := options{cfg: serve.DefaultConfig(), addr: ":8080"}
		tc.set(&want)
		got, err := parseArgs(tc.args...)
		if err != nil {
			t.Errorf("%v: %v", tc.args, err)
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%v: %+v, want %+v", tc.args, got, want)
		}
	}

	for _, name := range []string{"queue-cap", "max-batch", "watchdog", "retry-budget", "breaker-threshold", "breaker-backoff",
		"cache-ttl", "coalesce", "hot-decay", "hot-bytes", "timeout"} {
		if _, err := parseArgs("-"+name, "1"); err == nil || !strings.Contains(err.Error(), "flag provided but not defined") {
			t.Errorf("-%s: err = %v, want flag provided but not defined", name, err)
		}
	}

	if _, err := parseArgs("-tenant-weights", "gold=0"); err == nil {
		t.Error("-tenant-weights gold=0 accepted")
	}
}
