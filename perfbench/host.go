package main

import (
	"bufio"
	"bytes"
	"os"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// processCPU returns the user plus system CPU time the process has used.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// cpuStat is the aggregate "cpu" line of /proc/stat, in clock ticks.
type cpuStat struct {
	total, steal uint64
}

func readCPUStat() cpuStat {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuStat{}
	}
	return parseCPUStat(data)
}

func parseCPUStat(data []byte) cpuStat {
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 9 || fields[0] != "cpu" {
			continue
		}
		// user nice system idle iowait irq softirq steal [guest guest_nice];
		// guest time is already counted in user, so only the first eight add
		// up to the total.
		var st cpuStat
		for k, f := range fields[1:9] {
			v, _ := strconv.ParseUint(f, 10, 64)
			st.total += v
			if k == 7 {
				st.steal = v
			}
		}
		return st
	}
	return cpuStat{}
}

// stealPctSince is the share of all CPU time that the hypervisor stole from
// this guest between the two samples, in percent.
func (s cpuStat) stealPctSince(before cpuStat) float64 {
	total := float64(s.total - before.total)
	if total <= 0 {
		return 0
	}
	return 100 * float64(s.steal-before.steal) / total
}

// peakRSSMiB is the process's peak resident set (VmHWM) in MiB.
func peakRSSMiB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}
