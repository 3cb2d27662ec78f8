package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// lockedBuffer collects a child's stderr for error reports.
type lockedBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *lockedBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.b.Len() > 64<<10 {
		return len(p), nil // keep the head: startup errors come first
	}
	return l.b.Write(p)
}

func (l *lockedBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// serverProc is one formserve process the benchmark started.
type serverProc struct {
	cmd    *exec.Cmd
	URL    string
	stderr *lockedBuffer
	done   chan struct{} // closed once the process has been waited for
	err    error         // Wait's result, valid after done
}

// freeAddr asks the kernel for an unused loopback port.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", fmt.Errorf("finding a free port: %w", err)
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

// startServer launches formserve on addr with extra flags and waits until
// /readyz answers. The child is killed if the benchmark dies first.
func startServer(bin, addr string, flags ...string) (*serverProc, error) {
	args := append([]string{"-addr", addr}, flags...)
	cmd := exec.Command(bin, args...)
	stderr := &lockedBuffer{}
	cmd.Stderr = stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting formserve: %w", err)
	}
	p := &serverProc{cmd: cmd, URL: "http://" + addr, stderr: stderr, done: make(chan struct{})}
	go func() {
		p.err = cmd.Wait()
		close(p.done)
	}()
	if err := p.waitReady(10 * time.Second); err != nil {
		p.stop()
		return nil, err
	}
	return p, nil
}

// waitReady polls /readyz until it answers 200 or the process exits.
func (p *serverProc) waitReady(limit time.Duration) error {
	client := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(limit)
	for time.Now().Before(deadline) {
		select {
		case <-p.done:
			return fmt.Errorf("formserve exited during start-up: %v\n%s", p.err, p.stderr.String())
		default:
		}
		resp, err := client.Get(p.URL + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	return fmt.Errorf("formserve at %s not ready after %v\n%s", p.URL, limit, p.stderr.String())
}

// stop asks the process to drain (SIGTERM), kills it if it has not exited
// within five seconds, and returns once it has been waited for.
func (p *serverProc) stop() {
	if p == nil {
		return
	}
	select {
	case <-p.done:
		return
	default:
	}
	_ = p.cmd.Process.Signal(syscall.SIGTERM) // an already-exited child is fine
	select {
	case <-p.done:
	case <-time.After(5 * time.Second):
		_ = p.cmd.Process.Kill() // best effort; done still closes on exit
		<-p.done
	}
}

// alive reports whether the process is still running.
func (p *serverProc) alive() bool {
	select {
	case <-p.done:
		return false
	default:
		return true
	}
}

// resetPeakRSS zeroes a process's resident-set high-water mark (Linux
// clear_refs code 5), so VmHWM covers only what follows. pid 0 is this
// process.
func resetPeakRSS(pid int) error {
	path := "/proc/self/clear_refs"
	if pid != 0 {
		path = fmt.Sprintf("/proc/%d/clear_refs", pid)
	}
	if err := os.WriteFile(path, []byte("5"), 0); err != nil {
		return fmt.Errorf("resetting peak RSS: %w", err)
	}
	return nil
}

// peakRSSMB reads a process's VmHWM in MiB; pid 0 is this process.
func peakRSSMB(pid int) (float64, error) {
	path := "/proc/self/status"
	if pid != 0 {
		path = fmt.Sprintf("/proc/%d/status", pid)
	}
	f, err := os.Open(path)
	if err != nil {
		return 0, fmt.Errorf("reading peak RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			break
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0, fmt.Errorf("reading peak RSS: %w", err)
		}
		return kb / 1024, nil
	}
	return 0, errors.New("reading peak RSS: no VmHWM line")
}

// rssSampler takes a process's peak RSS once per window: at each tick it
// reads VmHWM and resets it, so each reading is that window's own peak.
type rssSampler struct {
	pid   int
	stop  chan struct{}
	done  chan struct{}
	peaks []float64 // MiB, one per whole window
	err   error
}

// sampleRSS resets a process's peak RSS and starts sampling it every w;
// pid 0 is this process.
func sampleRSS(pid int, w time.Duration) (*rssSampler, error) {
	if err := resetPeakRSS(pid); err != nil {
		return nil, err
	}
	s := &rssSampler{pid: pid, stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(w)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
				p, err := peakRSSMB(pid)
				if err == nil {
					err = resetPeakRSS(pid)
				}
				if err != nil {
					s.err = err
					return
				}
				s.peaks = append(s.peaks, p)
			}
		}
	}()
	return s, nil
}

// median stops the sampler and returns the median of the whole windows'
// peaks, so one window's burst does not decide the figure. A run shorter
// than one window reports its peak so far.
func (s *rssSampler) median() (float64, error) {
	close(s.stop)
	<-s.done
	if s.err != nil {
		return 0, s.err
	}
	if len(s.peaks) == 0 {
		return peakRSSMB(s.pid)
	}
	return median(s.peaks), nil
}

// metricsScrape is the part of formserve's /metrics (expvar JSON) the
// benchmark reads.
type metricsScrape struct {
	ExtractLatency histSnapshot
	QueryLatency   histSnapshot
	Cache          map[string]int64
	Fallbacks      int64
}

// scrapeMetrics fetches and decodes one /metrics snapshot.
func scrapeMetrics(client *http.Client, base string) (metricsScrape, error) {
	var out metricsScrape
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return out, fmt.Errorf("scraping %s/metrics: %w", base, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return out, fmt.Errorf("scraping %s/metrics: %w", base, err)
	}
	if resp.StatusCode != http.StatusOK {
		return out, fmt.Errorf("scraping %s/metrics: status %d", base, resp.StatusCode)
	}
	return decodeMetrics(body)
}

// decodeMetrics parses an expvar /metrics body.
func decodeMetrics(body []byte) (metricsScrape, error) {
	var out metricsScrape
	var raw struct {
		Extract  json.RawMessage  `json:"formserve_extract_latency_ns"`
		Query    json.RawMessage  `json:"formserve_query_latency_ns"`
		Cache    map[string]int64 `json:"formserve_cache"`
		Fallback int64            `json:"formserve_peer_fallback_total"`
	}
	if err := json.Unmarshal(body, &raw); err != nil {
		return out, fmt.Errorf("decoding /metrics: %w", err)
	}
	var err error
	if out.ExtractLatency, err = decodeHist(raw.Extract); err != nil {
		return out, err
	}
	if out.QueryLatency, err = decodeHist(raw.Query); err != nil {
		return out, err
	}
	out.Cache, out.Fallbacks = raw.Cache, raw.Fallback
	return out, nil
}

// decodeHist parses one histogram as formext.Histogram renders it:
// {"count","sum","min","max","buckets":[{"le":N,"count":C},...,{"le":"+Inf",...}]}.
func decodeHist(raw json.RawMessage) (histSnapshot, error) {
	var h histSnapshot
	if len(raw) == 0 {
		return h, nil
	}
	var v struct {
		Count   uint64  `json:"count"`
		Max     float64 `json:"max"`
		Buckets []struct {
			LE    json.RawMessage `json:"le"`
			Count uint64          `json:"count"`
		} `json:"buckets"`
	}
	if err := json.Unmarshal(raw, &v); err != nil {
		return h, fmt.Errorf("decoding histogram: %w", err)
	}
	h.Count, h.Max = v.Count, v.Max
	for _, b := range v.Buckets {
		le := math.Inf(1)
		if s := string(b.LE); s != `"+Inf"` {
			f, err := strconv.ParseFloat(s, 64)
			if err != nil {
				return h, fmt.Errorf("decoding histogram bound %s: %w", s, err)
			}
			le = f
		}
		h.Buckets = append(h.Buckets, histBucket{LE: le, Count: b.Count})
	}
	return h, nil
}
