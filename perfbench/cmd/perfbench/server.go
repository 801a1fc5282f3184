package main

import (
	"fmt"
	"io/fs"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"syscall"
	"time"
)

// serverProc is one docs-server process over a data directory.
type serverProc struct {
	cmd     *exec.Cmd
	base    string
	started time.Time
	logFile *os.File
	exited  bool
}

// usage is what the kernel accounted to an ended server process.
type usage struct {
	cpu     time.Duration // user plus system
	peakRSS int64         // bytes
}

// startServer starts docs-server on a free loopback port over dataDir and
// waits until it answers /healthz.
func startServer(bin, dataDir, logPath string, flags []string) (*serverProc, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	logFile, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	args := append([]string{"-addr", addr, "-wal-dir", dataDir}, flags...)
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = logFile, logFile
	// A server outlives no benchmark that is itself killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	p := &serverProc{cmd: cmd, base: "http://" + addr, logFile: logFile}
	p.started = time.Now()
	if err := cmd.Start(); err != nil {
		logFile.Close()
		return nil, fmt.Errorf("start docs-server: %w", err)
	}
	if err := p.waitReady(60 * time.Second); err != nil {
		p.kill()
		return nil, err
	}
	return p, nil
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

func (p *serverProc) waitReady(limit time.Duration) error {
	send := httpTransport(p.base)
	deadline := time.Now().Add(limit)
	for time.Now().Before(deadline) {
		if code, _, err := send("GET", "/healthz", nil); err == nil && code == 200 {
			return nil
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("docs-server at %s not ready after %v", p.base, limit)
}

// kill sends SIGKILL, waits for the process to end and returns its
// resource usage. Safe to call twice.
func (p *serverProc) kill() (usage, error) {
	if p.exited {
		return usage{}, nil
	}
	p.exited = true
	defer p.logFile.Close()
	if err := p.cmd.Process.Signal(syscall.SIGKILL); err != nil {
		return usage{}, err
	}
	_ = p.cmd.Wait() // the error only reports the kill
	ru, ok := p.cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if !ok {
		return usage{}, fmt.Errorf("no resource usage for docs-server")
	}
	return usage{
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		peakRSS: ru.Maxrss * 1024, // Linux reports KiB
	}, nil
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.Type().IsRegular() {
			info, err := d.Info()
			if err != nil {
				return err
			}
			total += info.Size()
		}
		return nil
	})
	return total, err
}

// copyFiles copies the named regular files from src to dst, skipping any
// that do not exist.
func copyFiles(src, dst string, names ...string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	for _, n := range names {
		data, err := os.ReadFile(filepath.Join(src, n))
		if os.IsNotExist(err) {
			continue
		}
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, n), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// copyDir copies a directory tree of regular files.
func copyDir(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), data, 0o644)
	})
}
