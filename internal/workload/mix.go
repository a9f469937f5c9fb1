package workload

import (
	"fmt"

	"repro/internal/trace"
)

// Mix interleaves several generated traces by arrival time into one
// multi-tenant workload: each tenant's address space is stacked above the
// previous one's footprint, so tenants never alias. The result models
// consolidated storage (several VMs sharing one SSD), an evaluation axis
// the VDI trace hints at.
func Mix(name string, opts Options, profiles ...Profile) (*trace.Trace, error) {
	if len(profiles) == 0 {
		return nil, fmt.Errorf("workload: Mix needs at least one profile")
	}
	pageSize := opts.pageSize()
	type cursor struct {
		reqs []trace.Request
		pos  int
		base int64 // byte offset of this tenant's address space
	}
	curs := make([]*cursor, 0, len(profiles))
	var nextBase int64
	total := 0
	for i, p := range profiles {
		o := opts
		o.SeedOffset += int64(i) * 7919 // decorrelate identical profiles
		t, err := Generate(p, o)
		if err != nil {
			return nil, err
		}
		curs = append(curs, &cursor{reqs: t.Requests, base: nextBase})
		nextBase += p.FootprintPages * pageSize
		total += len(t.Requests)
	}
	out := &trace.Trace{Name: name, Requests: make([]trace.Request, 0, total)}
	for {
		best := -1
		var bestTime int64
		for i, c := range curs {
			if c.pos >= len(c.reqs) {
				continue
			}
			if t := c.reqs[c.pos].Time; best < 0 || t < bestTime {
				best, bestTime = i, t
			}
		}
		if best < 0 {
			break
		}
		c := curs[best]
		req := c.reqs[c.pos]
		req.Offset += c.base
		out.Requests = append(out.Requests, req)
		c.pos++
	}
	return out, nil
}

// TotalFootprintPages returns the stacked footprint of a profile set, for
// sizing the device before replaying a Mix.
func TotalFootprintPages(profiles ...Profile) int64 {
	var sum int64
	for _, p := range profiles {
		sum += p.FootprintPages
	}
	return sum
}
