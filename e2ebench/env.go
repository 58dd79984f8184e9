package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// stamp records what a result was measured on, so two results can be
// compared only when they share a machine and a configuration.
type stamp struct {
	Workload    string `json:"workload"`
	Seed        int64  `json:"seed"`
	Seconds     int    `json:"seconds"`
	Trace       bool   `json:"trace"`
	GoVersion   string `json:"go_version"`
	GOOS        string `json:"goos"`
	GOARCH      string `json:"goarch"`
	NumCPU      int    `json:"num_cpu"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	CPUModel    string `json:"cpu_model"`
	DataFS      string `json:"data_fs"`
	FlushPolicy string `json:"flush_policy"`
	Drivers     int    `json:"drivers"`
	Mobiles     int    `json:"mobiles"`
}

func newStamp(o options, dataDir string, drivers int) stamp {
	return stamp{
		Workload:   o.workload,
		Seed:       o.seed,
		Seconds:    o.seconds,
		Trace:      o.trace,
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
		DataFS:     fsType(dataDir),
		// The tier's only flush policy: every commit, merge and window
		// advance is fsynced before it is acknowledged.
		FlushPolicy: "sync-before-ack",
		Drivers:     drivers,
		Mobiles:     drivers * fleet,
	}
}

// cpuModel returns the first "model name" of /proc/cpuinfo, or "unknown".
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

// fsMagic names the filesystems a data directory is likely to sit on, by
// their statfs magic number.
var fsMagic = map[int64]string{
	0xEF53:     "ext4",
	0x58465342: "xfs",
	0x9123683E: "btrfs",
	0x01021994: "tmpfs",
	0x794C7630: "overlayfs",
	0x2FC12FC1: "zfs",
	0x65735546: "fuse",
	0x6969:     "nfs",
}

// fsType names the filesystem holding dir.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	if name, ok := fsMagic[int64(st.Type)]; ok {
		return name
	}
	return fmt.Sprintf("0x%x", int64(st.Type))
}

// cpuTicks reads the machine-wide CPU time split of /proc/stat: the ticks
// stolen by the hypervisor and the total. A rising steal share means
// other tenants of the host are taking CPU time from this machine, which
// slows every wall-clock metric without any change to the program.
func cpuTicks() (steal, total int64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:9] {
		var v int64
		fmt.Sscan(f, &v)
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// cpuTime returns the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB returns the process's peak resident set size in MiB (Linux
// reports ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}
