// Package profiling is the -pprof listener both servers share: net/http/pprof
// on its own address, away from the serving mux, with mutex and block
// profiling switched on.
package profiling

import (
	"fmt"
	"net/http"
	"net/http/pprof"
	"os"
	"runtime"
)

// Serve starts the listener on addr in the background; prog names the
// process in its log lines. The sampled rates are cheap enough to leave on
// while serving and detailed enough that /debug/pprof/mutex and /block show
// real contention.
func Serve(prog, addr string) {
	runtime.SetMutexProfileFraction(100)
	runtime.SetBlockProfileRate(10_000) // one sample per 10µs blocked
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	go func() {
		fmt.Fprintf(os.Stderr, "%s: pprof on %s\n", prog, addr)
		if err := http.ListenAndServe(addr, mux); err != nil {
			fmt.Fprintf(os.Stderr, "%s: pprof: %v\n", prog, err)
		}
	}()
}
