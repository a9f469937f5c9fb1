// Command tracecheck validates a Chrome trace-event JSON file (the
// -perfetto output of ssdreplay) against the subset of the trace-event
// format the exporter emits, so CI can fail fast on a malformed export
// without loading it into a UI:
//
//   - the file is one JSON object with a traceEvents array
//   - every event has name, ph, and pid; ph is "X" (complete), "i"
//     (instant) or "M" (metadata)
//   - "X" events carry non-negative ts and dur, and a tid
//   - "i" events carry ts and tid
//   - every "blame" child slice, and every instant, lies within the latest
//     request slice on its tid
//
// Exit status 0 and a one-line summary on success; 1 with a diagnostic
// on the first violation.
//
//	tracecheck trace.json
package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// traceFile is the document shape NewTraceExport writes.
type traceFile struct {
	DisplayTimeUnit string       `json:"displayTimeUnit"`
	TraceEvents     []traceEvent `json:"traceEvents"`
}

// traceEvent is one entry; pointer fields distinguish absent from zero.
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Pid  *int64         `json:"pid"`
	Tid  *int64         `json:"tid"`
	Ts   *float64       `json:"ts"`
	Dur  *float64       `json:"dur"`
	Args map[string]any `json:"args"`
}

func main() {
	if len(os.Args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: tracecheck trace.json")
		os.Exit(1)
	}
	if err := check(os.Args[1]); err != nil {
		fmt.Fprintln(os.Stderr, "tracecheck:", err)
		os.Exit(1)
	}
}

func check(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var tf traceFile
	if err := json.Unmarshal(data, &tf); err != nil {
		return fmt.Errorf("%s: not valid JSON: %w", path, err)
	}
	if tf.TraceEvents == nil {
		return fmt.Errorf("%s: no traceEvents array", path)
	}
	// The parent request slice each later blame slice and instant must
	// nest inside, keyed by thread (the exporter emits children right
	// after their parent on the same tid). Allow half-a-microsecond slack
	// for the fixed-point µs rendering of nanosecond times.
	type span struct{ start, end float64 }
	parents := map[int64]span{}
	const eps = 0.0005
	inParent := func(i int, ev traceEvent, kind string, start, end float64) error {
		p, ok := parents[*ev.Tid]
		if !ok {
			return fmt.Errorf("%s: event %d (%s): %s before any request slice on tid %d", path, i, ev.Name, kind, *ev.Tid)
		}
		if start < p.start-eps || end > p.end+eps {
			return fmt.Errorf("%s: event %d (%s): %s [%g,%g] outside parent [%g,%g]",
				path, i, ev.Name, kind, start, end, p.start, p.end)
		}
		return nil
	}
	var slices, instants, meta int
	for i, ev := range tf.TraceEvents {
		if ev.Name == "" {
			return fmt.Errorf("%s: event %d: missing name", path, i)
		}
		if ev.Pid == nil {
			return fmt.Errorf("%s: event %d (%s): missing pid", path, i, ev.Name)
		}
		switch ev.Ph {
		case "M":
			meta++
		case "X":
			slices++
			if ev.Ts == nil || ev.Dur == nil {
				return fmt.Errorf("%s: event %d (%s): X event missing ts or dur", path, i, ev.Name)
			}
			if *ev.Ts < 0 || *ev.Dur < 0 {
				return fmt.Errorf("%s: event %d (%s): negative ts or dur", path, i, ev.Name)
			}
			if ev.Tid == nil {
				return fmt.Errorf("%s: event %d (%s): X event missing tid", path, i, ev.Name)
			}
			switch ev.Cat {
			case "request":
				parents[*ev.Tid] = span{*ev.Ts, *ev.Ts + *ev.Dur}
			case "blame":
				if err := inParent(i, ev, "blame slice", *ev.Ts, *ev.Ts+*ev.Dur); err != nil {
					return err
				}
			}
		case "i":
			instants++
			if ev.Ts == nil || ev.Tid == nil {
				return fmt.Errorf("%s: event %d (%s): i event missing ts or tid", path, i, ev.Name)
			}
			if err := inParent(i, ev, "instant", *ev.Ts, *ev.Ts); err != nil {
				return err
			}
		default:
			return fmt.Errorf("%s: event %d (%s): unexpected ph %q", path, i, ev.Name, ev.Ph)
		}
	}
	fmt.Printf("tracecheck: %s ok — %d slices, %d instants, %d metadata events\n", path, slices, instants, meta)
	return nil
}
