package main

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
)

// median returns the middle value (mean of the middle two for even n), 0
// for no samples.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func minMax(v []float64) (lo, hi float64) {
	for i, x := range v {
		if i == 0 || x < lo {
			lo = x
		}
		if i == 0 || x > hi {
			hi = x
		}
	}
	return lo, hi
}

// resetPeakRSS returns the process to its live set and asks the kernel to
// restart the VmHWM high-water mark, so the next peakRSSMB reading covers
// only what ran in between. It reports false when the kernel refuses the
// reset; readings are then whole-process peaks.
func resetPeakRSS() bool {
	runtime.GC()
	debug.FreeOSMemory()
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) == nil
}

// peakRSSMB reads VmHWM from /proc/self/status in MB (10^6 bytes).
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", line, err)
			}
			return kb * 1024 / 1e6, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// tableSum is what the correctness gate knows about one committed table.
type tableSum struct {
	Hash  string `json:"hash"` // FNV-64a over the CSV bytes
	Bytes int64  `json:"bytes"`
	Rows  int64  `json:"rows"` // lines after the header
}

// tree maps table name to its committed CSV's summary.
type tree map[string]tableSum

func (t tree) bytes() (n int64) {
	for _, s := range t {
		n += s.Bytes
	}
	return n
}

func (t tree) rows() (n int64) {
	for _, s := range t {
		n += s.Rows
	}
	return n
}

// hashTree summarises every <table>.csv under dir.
func hashTree(dir string) (tree, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*.csv"))
	if err != nil {
		return nil, err
	}
	t := make(tree, len(files))
	for _, path := range files {
		sum, err := hashFile(path)
		if err != nil {
			return nil, err
		}
		t[strings.TrimSuffix(filepath.Base(path), ".csv")] = sum
	}
	return t, nil
}

func hashFile(path string) (tableSum, error) {
	f, err := os.Open(path)
	if err != nil {
		return tableSum{}, err
	}
	defer f.Close()
	h := fnv.New64a()
	var sum tableSum
	buf := make([]byte, 1<<20)
	for {
		n, err := f.Read(buf)
		h.Write(buf[:n])
		sum.Bytes += int64(n)
		sum.Rows += int64(bytes.Count(buf[:n], []byte{'\n'}))
		if err == io.EOF {
			break
		}
		if err != nil {
			return tableSum{}, err
		}
	}
	sum.Rows-- // the header line
	sum.Hash = fmt.Sprintf("%016x", h.Sum64())
	return sum, nil
}

// provenance is recorded with every suite result so a number is never
// separated from the host and build that produced it.
type provenance struct {
	Commit     string `json:"commit"`
	Modified   bool   `json:"modified"`
	GoVersion  string `json:"go_version"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Kernel     string `json:"kernel"`
	SinkFS     string `json:"sink_fs"`
}

func readProvenance(sinkDir string) provenance {
	p := provenance{
		Commit:     "unknown",
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Kernel:     "unknown",
		SinkFS:     fsType(sinkDir),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				p.Commit = s.Value
			case "vcs.modified":
				p.Modified = s.Value == "true"
			}
		}
	}
	if p.Commit == "unknown" {
		// `go run` stamps no VCS settings; ask git, if this is a repository.
		if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
			p.Commit = strings.TrimSpace(string(out))
			dirty, err := exec.Command("git", "status", "--porcelain").Output()
			p.Modified = err != nil || len(dirty) > 0
		}
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		p.Kernel = strings.TrimSpace(string(b))
	}
	return p
}

// fsType names the filesystem holding dir, by statfs magic.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xEF53:     "ext4",
		0x01021994: "tmpfs",
		0x794C7630: "overlayfs",
		0x58465342: "xfs",
		0x9123683E: "btrfs",
		0x6969:     "nfs",
		0x2FC12FC1: "zfs",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}

// cpuTicks reads the host-wide CPU counters of /proc/stat: ticks stolen by
// the hypervisor and ticks in total. On a shared virtual machine stolen time
// comes in episodes of minutes at 30–40 %, and a run measured through one is
// noise; every run reports its share so such runs can be told apart.
func cpuTicks() (steal, total float64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i, s := range f[1:] {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return 0, 0
		}
		if i < 8 { // user nice system idle iowait irq softirq steal; the rest repeat user time
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// stolenSince is the percentage of host CPU time stolen since the counters
// read steal0 and total0.
func stolenSince(steal0, total0 float64) float64 {
	steal1, total1 := cpuTicks()
	if total1 <= total0 {
		return 0
	}
	return 100 * (steal1 - steal0) / (total1 - total0)
}
