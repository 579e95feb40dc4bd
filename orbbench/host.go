package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"syscall"
)

// hostStamp names the host and build a result was measured on: CPU
// model, CPU count, GOMAXPROCS, kernel, Go version, commit, seed and
// the link the traffic crossed.
func hostStamp(seed uint64) string {
	return fmt.Sprintf("cpu=%q nproc=%d gomaxprocs=%d kernel=%q go=%s commit=%s seed=%d link=loopback",
		cpuModel(), runtime.NumCPU(), runtime.GOMAXPROCS(0), kernel(), runtime.Version(), commit(), seed)
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func kernel() string {
	var u syscall.Utsname
	if err := syscall.Uname(&u); err != nil {
		return "unknown"
	}
	var b strings.Builder
	for _, c := range u.Release {
		if c == 0 {
			break
		}
		b.WriteByte(byte(c))
	}
	return b.String()
}

// commit is the VCS revision the binary was built from, when the build
// could see one ("+dirty" marks uncommitted changes).
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", ""
	for _, s := range info.Settings {
		switch {
		case s.Key == "vcs.revision":
			rev = s.Value
		case s.Key == "vcs.modified" && s.Value == "true":
			dirty = "+dirty"
		}
	}
	return rev + dirty
}
