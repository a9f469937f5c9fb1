package main

import (
	"bufio"
	"fmt"
	"os"
	"strconv"
	"strings"
)

// Hypervisor steal. On a shared host the VM's CPUs are at times ready to
// run but given no physical CPU; the kernel counts that time as steal.
// It comes and goes with the host's other tenants over minutes and
// stretches every wall-clock figure by up to a half (one set of ten
// replay-stream runs on the reference host spread 46% in throughput
// while CPU time per request spread 9%). The host-time end-to-end
// metrics that time whole jobs (replay calls, set-ups, one-second windows
// of the closed loop) are therefore reported in steal-free time: each
// interval is scaled by the share of the CPU time the VM asked for during
// it that it was given, before the median is taken. A median of per-op
// latencies is left as measured: a burst of steal stretches the few ops
// it hits, not the median one.

// cpuTicks is the VM's CPU accounting, summed over its CPUs, in clock
// ticks: time spent busy (user, nice, system, irq, softirq) and time
// stolen by the hypervisor.
type cpuTicks struct{ busy, steal int64 }

// readCPUTicks reads the first line of /proc/stat.
func readCPUTicks() (cpuTicks, error) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return cpuTicks{}, err
	}
	defer f.Close()
	line, err := bufio.NewReader(f).ReadString('\n')
	if err != nil {
		return cpuTicks{}, fmt.Errorf("/proc/stat: %w", err)
	}
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return cpuTicks{}, fmt.Errorf("/proc/stat: unexpected first line %q", line)
	}
	var v [8]int64 // user nice system idle iowait irq softirq steal
	for i := range v {
		if v[i], err = strconv.ParseInt(fields[1+i], 10, 64); err != nil {
			return cpuTicks{}, fmt.Errorf("/proc/stat: %w", err)
		}
	}
	return cpuTicks{busy: v[0] + v[1] + v[2] + v[5] + v[6], steal: v[7]}, nil
}

// ticksNow is readCPUTicks for the timed paths; runConfig has checked
// that /proc/stat reads, so an error here counts as no steal.
func ticksNow() cpuTicks {
	t, _ := readCPUTicks()
	return t
}

// given is the share of the CPU time the VM asked for between two
// readings that it was given: 1 with no steal, and 1 when no busy tick
// fell between them (too short to tell). Scaling a wall-clock time by it
// gives steal-free time.
func given(from, to cpuTicks) float64 {
	busy, steal := to.busy-from.busy, to.steal-from.steal
	if busy <= 0 {
		return 1
	}
	return float64(busy) / float64(busy+steal)
}
