package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/debug"
	"strings"

	"turbo/internal/datagen"
)

// Provenance is recorded with every result: the machine, the build,
// and every setting that shapes the numbers.
type Provenance struct {
	CPU        string   `json:"cpu"`
	NumCPU     int      `json:"nproc"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	GoVersion  string   `json:"go_version"`
	Commit     string   `json:"commit"`
	Dirty      string   `json:"dirty"`
	Seed       uint64   `json:"seed"`
	Seconds    float64  `json:"seconds"`
	WorldUsers int      `json:"world_users"`
	Conns      int      `json:"connections"`
	P99LimitMs float64  `json:"p99_limit_ms"`
	SetupRuns  int      `json:"setup_runs"`
	Workload   Workload `json:"workload"`
	Wiring     Wiring   `json:"wiring"`
}

func provenance(w Workload, seed uint64, seconds float64) Provenance {
	p := Provenance{
		CPU:        cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     "unknown",
		Dirty:      "unknown",
		Seed:       seed,
		Seconds:    seconds,
		WorldUsers: datagen.Tiny().Users,
		Conns:      runtime.NumCPU(),
		P99LimitMs: p99LimitMs,
		SetupRuns:  setupRuns,
		Workload:   w,
		Wiring:     serverDefaults,
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				p.Commit = s.Value
			case "vcs.modified":
				p.Dirty = s.Value
			}
		}
	}
	return p
}

// cpuModel reads the first "model name" of /proc/cpuinfo.
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
