package main

import (
	"bufio"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
)

// fingerprint records the machine and the inputs a result was measured
// on, printed with every result.
func fingerprint(c *config, w *workload) map[string]any {
	fp := map[string]any{
		"workload":   w.name,
		"seed":       c.seed,
		"seconds":    c.seconds,
		"trace":      c.trace,
		"params":     w.params,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
		"goamd64":    buildSetting("GOAMD64"),
		"cpu_model":  cpuModel(),
	}
	for level, size := range cacheSizes() {
		fp[level] = size
	}
	return fp
}

// buildSetting returns a setting recorded in the binary's build info (for
// GOAMD64, the microarchitecture level the binary was compiled for).
func buildSetting(key string) string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return ""
	}
	for _, s := range bi.Settings {
		if s.Key == key {
			return s.Value
		}
	}
	return ""
}

// cpuModel returns the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return ""
}

// cacheSizes reads CPU 0's unified/data cache sizes by level from sysfs,
// keyed "l1d", "l2", "l3".
func cacheSizes() map[string]string {
	out := map[string]string{}
	dirs, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*")
	for _, d := range dirs {
		level := readTrim(filepath.Join(d, "level"))
		typ := readTrim(filepath.Join(d, "type"))
		size := readTrim(filepath.Join(d, "size"))
		if level == "" || size == "" || typ == "Instruction" {
			continue
		}
		key := "l" + level
		if typ == "Data" {
			key += "d"
		}
		out[key] = size
	}
	return out
}

func readTrim(path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(b))
}
