package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/serve"
)

// clockTicks is the kernel's USER_HZ, the unit of utime and stime in
// /proc/<pid>/stat; it is 100 on every Linux architecture Go supports.
const clockTicks = 100

// servehd is one running servehd process.
type servehd struct {
	cmd    *exec.Cmd
	base   string
	exited chan error
}

// startServehd execs bin and returns once /healthz answers 200, with
// the time from exec to that answer: the set-up a user waits for,
// training included.
func startServehd(bin string, args []string) (*servehd, time.Duration, error) {
	cmd := exec.Command(bin, args...)
	cmd.Stderr = os.Stderr
	// A benchmark killed mid-run takes its server down with it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("start servehd: %w", err)
	}
	p := &servehd{cmd: cmd, exited: make(chan error, 1)}
	addr := make(chan string, 1)
	go func() {
		// servehd announces its bound address on a "listening on" line;
		// the rest of its output is drained so it never blocks on a
		// full pipe.
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			if a, ok := strings.CutPrefix(sc.Text(), "servehd listening on "); ok {
				select {
				case addr <- a:
				default:
				}
			}
		}
		_, _ = io.Copy(io.Discard, out)
		p.exited <- cmd.Wait()
	}()
	select {
	case a := <-addr:
		p.base = "http://" + a
	case err := <-p.exited:
		return nil, 0, fmt.Errorf("servehd exited before listening: %v", err)
	case <-time.After(120 * time.Second):
		p.stop()
		return nil, 0, errors.New("servehd did not listen within 120s")
	}
	c := newClient(p.base, nil, 0)
	defer c.close()
	for {
		if err := c.get("/healthz", nil); err == nil {
			return p, time.Since(t0), nil
		}
		if time.Since(t0) > 120*time.Second {
			p.stop()
			return nil, 0, errors.New("servehd /healthz not ready within 120s")
		}
		time.Sleep(time.Millisecond)
	}
}

// stop drains servehd with SIGTERM, kills it if the drain takes over
// 15s, and waits until it has exited.
func (p *servehd) stop() {
	_ = p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.exited:
	case <-time.After(15 * time.Second):
		_ = p.cmd.Process.Kill()
		<-p.exited
	}
}

// cpuTime is the process's user plus system CPU time.
func (p *servehd) cpuTime() (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	return parseStatCPU(string(b))
}

// parseStatCPU reads utime and stime, fields 14 and 15 of a
// /proc/<pid>/stat line. Fields are counted after the parenthesised
// command name, which may itself contain spaces.
func parseStatCPU(stat string) (time.Duration, error) {
	i := strings.LastIndexByte(stat, ')')
	if i < 0 {
		return 0, errors.New("proc stat: no command field")
	}
	f := strings.Fields(stat[i+1:])
	if len(f) < 13 {
		return 0, errors.New("proc stat: short line")
	}
	// f[0] is field 3 (state), so utime (14) is f[11] and stime f[12].
	var ticks int64
	for _, s := range f[11:13] {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("proc stat: %w", err)
		}
		ticks += v
	}
	return time.Duration(ticks) * time.Second / clockTicks, nil
}

// peakRSS is the process's VmHWM in bytes.
func (p *servehd) peakRSS() (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 10, 64)
			if err != nil {
				return 0, fmt.Errorf("proc status: VmHWM: %w", err)
			}
			return kb << 10, nil
		}
	}
	return 0, errors.New("proc status: no VmHWM")
}

// hostTicks are the machine-wide CPU tick counters of /proc/stat.
type hostTicks struct {
	steal, total int64
}

// readHostTicks reads the aggregate cpu line of /proc/stat; steal is
// its eighth value. It returns zeros where /proc/stat is unreadable.
func readHostTicks() hostTicks {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return hostTicks{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return hostTicks{}
	}
	var h hostTicks
	for i, s := range f[1:] {
		v, _ := strconv.ParseInt(s, 10, 64)
		h.total += v
		if i == 7 {
			h.steal = v
		}
	}
	return h
}

// selfCPU is this process's user plus system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// counters are the server-side totals the per-layer table diffs
// across a window, read from /metrics and /fleet.
type counters struct {
	// started is when the scraped server process started: scrape time
	// minus its reported uptime.
	started         time.Time
	predictions     int64
	batches         int64
	trusted         int64
	dropped         int64
	faultyChunks    int64
	bitsSubstituted int64
	epochsPublished int64
	epochsBacklog   int64 // a gauge: diff keeps the later reading
	fastPredicts    int64
	quorumPredicts  int64
	escalations     int64
	repairBits      int64
	reseeds         int64
}

// readCounters scrapes /metrics (which embeds the /fleet status in
// fleet mode) and returns the counters plus the dispatched kernel tier.
func readCounters(c *client) (counters, string, error) {
	var m serve.Metrics
	if err := c.get("/metrics", &m); err != nil {
		return counters{}, "", err
	}
	k := counters{
		started:         time.Now().Add(-time.Duration(m.UptimeSeconds * float64(time.Second))),
		predictions:     m.Predictions,
		batches:         m.Batches,
		trusted:         m.Trusted,
		dropped:         m.Recovery.Dropped,
		faultyChunks:    int64(m.Recovery.Stats.FaultyChunks),
		bitsSubstituted: int64(m.Recovery.Stats.BitsSubstituted),
	}
	if m.Epochs != nil {
		k.epochsPublished = m.Epochs.Published
		k.epochsBacklog = m.Epochs.Backlog
	}
	if f := m.Fleet; f != nil {
		k.fastPredicts, k.quorumPredicts = f.FastPredicts, f.QuorumPredicts
		k.escalations, k.repairBits, k.reseeds = f.Escalations, f.RepairBits, f.Reseeds
		// Fleet replicas recover on their own recoverers.
		for _, r := range f.Replicas {
			if r.Recovery != nil {
				k.faultyChunks += int64(r.Recovery.FaultyChunks)
				k.bitsSubstituted += int64(r.Recovery.BitsSubstituted)
			}
		}
	}
	return k, m.Kernel, nil
}

// restartSlack absorbs the jitter in started between two scrapes of
// one process; a restarted servehd retrains first, which takes longer.
const restartSlack = 250 * time.Millisecond

// diffCounters returns what happened between two scrapes. A server
// that restarted in between counted every later total from zero, and so
// did a counter that went backwards (a reseeded replica's recoverer),
// so those totals are the deltas.
func diffCounters(before, after counters) counters {
	restarted := after.started.Sub(before.started) > restartSlack
	d := func(b, a int64) int64 {
		if restarted || a < b {
			return a
		}
		return a - b
	}
	return counters{
		started:         after.started,
		predictions:     d(before.predictions, after.predictions),
		batches:         d(before.batches, after.batches),
		trusted:         d(before.trusted, after.trusted),
		dropped:         d(before.dropped, after.dropped),
		faultyChunks:    d(before.faultyChunks, after.faultyChunks),
		bitsSubstituted: d(before.bitsSubstituted, after.bitsSubstituted),
		epochsPublished: d(before.epochsPublished, after.epochsPublished),
		epochsBacklog:   after.epochsBacklog,
		fastPredicts:    d(before.fastPredicts, after.fastPredicts),
		quorumPredicts:  d(before.quorumPredicts, after.quorumPredicts),
		escalations:     d(before.escalations, after.escalations),
		repairBits:      d(before.repairBits, after.repairBits),
		reseeds:         d(before.reseeds, after.reseeds),
	}
}
