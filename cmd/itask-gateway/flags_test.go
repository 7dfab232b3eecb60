package main

import (
	"flag"
	"io"
	"reflect"
	"strings"
	"testing"
	"time"

	"itask/internal/gateway"
)

// The flag surface: no flags serve exactly gateway.DefaultConfig(), each flag
// moves exactly the field it names, and the flags nothing set are gone.
func TestFlagSurface(t *testing.T) {
	parse := func(args ...string) (options, error) {
		flags := flag.NewFlagSet("itask-gateway", flag.ContinueOnError)
		flags.SetOutput(io.Discard)
		return parseFlags(flags, args)
	}
	defaults := func() options {
		return options{cfg: gateway.DefaultConfig(), addr: ":8080"}
	}
	got, err := parse()
	if err != nil {
		t.Fatal(err)
	}
	if want := defaults(); !reflect.DeepEqual(got, want) {
		t.Fatalf("no flags: %+v, want %+v", got, want)
	}

	for _, tc := range []struct {
		args []string
		set  func(*options)
	}{
		{[]string{"-addr", "127.0.0.1:1"}, func(o *options) { o.addr = "127.0.0.1:1" }},
		{[]string{"-pprof", "127.0.0.1:2"}, func(o *options) { o.pprofAddr = "127.0.0.1:2" }},
		{[]string{"-backends", "http://a/, http://b"}, func(o *options) { o.backends = []string{"http://a", "http://b"} }},
		{[]string{"-hot-threshold", "0"}, func(o *options) { o.cfg.HotThreshold = 0 }},
		{[]string{"-probe-interval", "250ms"}, func(o *options) { o.cfg.ProbeInterval = 250 * time.Millisecond }},
		{[]string{"-lease-ttl", "2s"}, func(o *options) { o.cfg.LeaseTTL = 2 * time.Second }},
		{[]string{"-retry-backoff", "5ms"}, func(o *options) { o.cfg.RetryBackoff = 5 * time.Millisecond }},
		{[]string{"-retry-backoff-max", "250ms"}, func(o *options) { o.cfg.RetryBackoffMax = 250 * time.Millisecond }},
	} {
		want := defaults()
		tc.set(&want)
		got, err := parse(tc.args...)
		if err != nil {
			t.Errorf("%v: %v", tc.args, err)
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%v: %+v, want %+v", tc.args, got, want)
		}
	}

	for _, name := range []string{"load-factor", "hot-replicas", "hot-decay"} {
		if _, err := parse("-"+name, "2"); err == nil || !strings.Contains(err.Error(), "flag provided but not defined") {
			t.Errorf("-%s: err = %v, want flag provided but not defined", name, err)
		}
	}

	// Static-only mode needs a seed list.
	if _, err := parse("-lease-ttl", "0"); err == nil {
		t.Error("-lease-ttl 0 without -backends accepted")
	}
	if _, err := parse("-lease-ttl", "0", "-backends", "http://a"); err != nil {
		t.Errorf("-lease-ttl 0 with -backends: %v", err)
	}
}
