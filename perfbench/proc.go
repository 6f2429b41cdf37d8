package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"sync"
	"syscall"
	"time"
)

// Every child runs in its own process group, so a daemon's rank
// processes can be killed with it. live holds the groups not yet known
// to be gone; killAll empties it on every exit path, signals included.
var live = struct {
	sync.Mutex
	pgids map[int]bool
}{pgids: map[int]bool{}}

func track(pgid int) {
	live.Lock()
	live.pgids[pgid] = true
	live.Unlock()
}

// reapGroup kills whatever is left of a process group and waits until
// the group is empty (orphaned grandchildren cannot be waited for, so
// their exit is polled).
func reapGroup(pgid int) {
	_ = syscall.Kill(-pgid, syscall.SIGKILL) // ESRCH: already empty
	deadline := time.Now().Add(10 * time.Second)
	for syscall.Kill(-pgid, 0) == nil && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	live.Lock()
	delete(live.pgids, pgid)
	live.Unlock()
}

func killAll() {
	live.Lock()
	var groups []int
	for g := range live.pgids {
		groups = append(groups, g)
	}
	live.Unlock()
	for _, g := range groups {
		reapGroup(g)
	}
}

// cleanupOnSignal makes an interrupted benchmark take its children down
// with it.
func cleanupOnSignal() {
	c := make(chan os.Signal, 1)
	signal.Notify(c, os.Interrupt, syscall.SIGTERM)
	go func() {
		s := <-c
		killAll()
		fmt.Fprintln(os.Stderr, "perfbench: stopped by", s)
		os.Exit(1)
	}()
}

// procRun is one reaped child: wall time from exec to reap and its
// rusage peak resident set (which covers its reaped descendants).
type procRun struct {
	Wall   time.Duration
	MaxRSS int64 // bytes
}

func (p procRun) rssMB() float64 { return float64(p.MaxRSS) / (1 << 20) }

func startGroup(cmd *exec.Cmd) error {
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	if err := cmd.Start(); err != nil {
		return err
	}
	track(cmd.Process.Pid)
	return nil
}

// waitGroup waits for the group leader, then clears the rest of its
// group.
func waitGroup(cmd *exec.Cmd) error {
	err := cmd.Wait()
	reapGroup(cmd.Process.Pid)
	return err
}

func maxRSS(cmd *exec.Cmd) int64 {
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		return ru.Maxrss << 10 // Linux reports KiB
	}
	return 0
}

// runTimed execs bin with args to completion, as a user would type it.
func runTimed(bin string, args ...string) (procRun, error) {
	cmd := exec.Command(bin, args...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	t0 := time.Now()
	if err := startGroup(cmd); err != nil {
		return procRun{}, err
	}
	err := waitGroup(cmd)
	r := procRun{Wall: time.Since(t0), MaxRSS: maxRSS(cmd)}
	if err != nil {
		var ee *exec.ExitError
		if errors.As(err, &ee) {
			err = fmt.Errorf("%s %v: %v: %s", bin, args, err, bytes.TrimSpace(stderr.Bytes()))
		}
		return r, err
	}
	return r, nil
}
