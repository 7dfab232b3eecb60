package main

import (
	"net/http"

	"itask/internal/serve"
)

// Health statuses reported by /healthz, per task and overall.
const (
	healthOK          = "ok"
	healthDegraded    = "degraded"    // some lane open, but a healthy fallback serves
	healthUnavailable = "unavailable" // every lane for a task open, no healthy fallback
	healthDraining    = "draining"
)

// laneHealth is one (variant, task) lane's breaker state in a health report.
type laneHealth struct {
	Variant      string  `json:"variant"`
	State        string  `json:"state"`
	RetryAfterMS float64 `json:"retry_after_ms,omitempty"`
}

// taskHealth is one task's serving status: its lanes' breaker states, the
// fallback variant consulted when a lane is open, and the verdict.
type taskHealth struct {
	Status   string       `json:"status"`
	Fallback string       `json:"fallback,omitempty"`
	Lanes    []laneHealth `json:"lanes,omitempty"`
}

// healthReport is the /healthz response body. Epoch is the shard's route
// epoch (its registry's content identity), present on 200 and 503 alike:
// the gateway's prober reads it here.
type healthReport struct {
	Status string                `json:"status"`
	Epoch  uint64                `json:"epoch"`
	Tasks  map[string]taskHealth `json:"tasks,omitempty"`
}

// computeHealth folds the server's per-lane breaker snapshot into a per-task
// health report and the HTTP status to serve it with. A task with an open
// lane is "degraded" while a healthy fallback variant can still serve it, and
// "unavailable" once every tracked lane for it is open and the fallback is
// missing or itself open; any unavailable task (or draining) makes the whole
// report a 503, so orchestrators stop sending traffic that can only fail.
// Lanes the breaker registry has never tracked are healthy by definition.
func computeHealth(draining bool, tasks []string, breakers []serve.LaneBreaker,
	fallback func(task string) (variant string, ok bool)) (healthReport, int) {
	if draining {
		return healthReport{Status: healthDraining}, http.StatusServiceUnavailable
	}
	byTask := map[string][]serve.LaneBreaker{}
	for _, b := range breakers {
		byTask[b.Task] = append(byTask[b.Task], b)
	}
	laneOpen := func(variant, task string) bool {
		for _, b := range byTask[task] {
			if b.Variant == variant {
				return b.State == "open"
			}
		}
		return false
	}

	rep := healthReport{Status: healthOK, Tasks: make(map[string]taskHealth, len(tasks))}
	code := http.StatusOK
	for _, task := range tasks {
		lanes := byTask[task]
		th := taskHealth{Status: healthOK}
		anyOpen, allOpen := false, len(lanes) > 0
		for _, b := range lanes {
			th.Lanes = append(th.Lanes, laneHealth{Variant: b.Variant, State: b.State, RetryAfterMS: b.RetryAfterMS})
			if b.State == "open" {
				anyOpen = true
			} else {
				allOpen = false
			}
		}
		if anyOpen {
			fbVariant, ok := fallback(task)
			if ok {
				th.Fallback = fbVariant
			}
			if allOpen && (!ok || laneOpen(fbVariant, task)) {
				th.Status = healthUnavailable
			} else {
				th.Status = healthDegraded
			}
		}
		rep.Tasks[task] = th
		switch th.Status {
		case healthUnavailable:
			rep.Status = healthUnavailable
			code = http.StatusServiceUnavailable
		case healthDegraded:
			if rep.Status == healthOK {
				rep.Status = healthDegraded
			}
		}
	}
	return rep, code
}
