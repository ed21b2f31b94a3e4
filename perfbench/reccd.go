package main

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// proc is one reccd child process.
type proc struct {
	cmd    *exec.Cmd
	base   string
	start  time.Time
	exited chan struct{} // closed once the process has been reaped
	err    error         // Wait's result; read only after exited is closed
	log    *os.File
}

// freeAddr reserves a loopback port for the child to listen on.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

// launch starts reccd with args plus a fresh -listen address. Its stderr,
// which carries the per-request access log, goes to logPath.
func launch(bin string, args []string, logPath string) (*proc, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	f, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, append(append([]string(nil), args...), "-listen", addr)...)
	cmd.Stdout, cmd.Stderr = f, f
	// Should the harness die without stopping it, reccd dies with it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	p := &proc{cmd: cmd, base: "http://" + addr, exited: make(chan struct{}), log: f}
	p.start = time.Now()
	if err := cmd.Start(); err != nil {
		f.Close()
		return nil, err
	}
	go func() {
		p.err = cmd.Wait()
		close(p.exited)
	}()
	return p, nil
}

// waitReady polls probe until it reports a correct answer and returns the
// time since launch. It fails if reccd exits or limit passes first.
func (p *proc) waitReady(probe func() error, limit time.Duration) (time.Duration, error) {
	deadline := p.start.Add(limit)
	var last error
	for time.Now().Before(deadline) {
		select {
		case <-p.exited:
			return 0, fmt.Errorf("reccd exited before answering (%v); last probe: %v", p.err, last)
		default:
		}
		if last = probe(); last == nil {
			return time.Since(p.start), nil
		} else if errors.Is(last, errWrongAnswer) {
			return 0, last
		}
		time.Sleep(2 * time.Millisecond)
	}
	return 0, fmt.Errorf("reccd not ready after %s: %v", limit, last)
}

// hwmKB reads the process's peak resident set (VmHWM) in kB.
func (p *proc) hwmKB() (int, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			return strconv.Atoi(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")))
		}
	}
	return 0, errors.New("no VmHWM line in /proc status")
}

// cpu returns the CPU time reccd's threads have run so far, to the
// nanosecond, from each thread's /proc schedstat.
func (p *proc) cpu() (time.Duration, error) {
	paths, err := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/schedstat", p.cmd.Process.Pid))
	if err != nil || len(paths) == 0 {
		return 0, fmt.Errorf("no schedstat for reccd (%v)", err)
	}
	var sum int64
	for _, path := range paths {
		b, err := os.ReadFile(path)
		if err != nil {
			continue // the thread exited between Glob and ReadFile
		}
		run, _, _ := strings.Cut(string(b), " ")
		ns, err := strconv.ParseInt(run, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", path, err)
		}
		sum += ns
	}
	return time.Duration(sum), nil
}

// hostSteal reads the machine-wide stolen and total CPU ticks.
func hostSteal() (steal, total int64, err error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, fmt.Errorf("unexpected /proc/stat line %q", line)
	}
	for i, x := range f[1:9] {
		v, err := strconv.ParseInt(x, 10, 64)
		if err != nil {
			return 0, 0, err
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total, nil
}

// stop sends SIGTERM, waits for the graceful drain, and kills after a grace
// period. It returns once the process has been reaped.
func (p *proc) stop() error {
	defer p.log.Close()
	select {
	case <-p.exited:
		return fmt.Errorf("reccd exited early: %v", p.err)
	default:
	}
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	select {
	case <-p.exited:
		return p.err
	case <-time.After(20 * time.Second):
		_ = p.cmd.Process.Kill()
		<-p.exited
		return errors.New("reccd ignored SIGTERM; killed")
	}
}
