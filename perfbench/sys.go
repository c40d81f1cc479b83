package main

import (
	"bufio"
	"os"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// stealTicks is the machine's steal time so far, in clock ticks: the time
// its virtual CPUs were ready to run while the host ran something else (the
// eighth value of the cpu line of /proc/stat). Zero when unavailable, which
// makes every window equally calm.
func stealTicks() int64 {
	f := strings.Fields(procField("/proc/stat", "cpu "))
	if len(f) < 8 {
		return 0
	}
	n, _ := strconv.ParseInt(f[7], 10, 64)
	return n
}

// peakRSSMiB is the process's peak resident set size (VmHWM) in MiB.
func peakRSSMiB() float64 {
	kb := procField("/proc/self/status", "VmHWM:")
	n, err := strconv.ParseFloat(strings.TrimSuffix(kb, " kB"), 64)
	if err != nil {
		return 0
	}
	return n / 1024
}

// cpuModel is the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	if m := procField("/proc/cpuinfo", "model name"); m != "" {
		return strings.TrimSpace(strings.TrimPrefix(m, ":"))
	}
	return "unknown"
}

// procField returns the rest of the first line of a /proc file that starts
// with key, trimmed; empty when absent.
func procField(path, key string) string {
	f, err := os.Open(path)
	if err != nil {
		return ""
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if line := sc.Text(); strings.HasPrefix(line, key) {
			return strings.TrimSpace(strings.TrimPrefix(line, key))
		}
	}
	return ""
}
