package main

import (
	"os"
	"os/exec"
	"os/signal"
	"sync"
	"syscall"
	"time"
)

// child is a started process that a background goroutine reaps.
type child struct {
	cmd    *exec.Cmd
	exited chan struct{} // closed once the process has been reaped
	err    error         // cmd.Wait's result, valid after exited closes
}

// live holds every child not yet reaped, so an interrupted run can stop
// them all before it exits.
var live = struct {
	sync.Mutex
	m map[*child]struct{}
}{m: make(map[*child]struct{})}

// startChild starts cmd and reaps it in the background.
func startChild(cmd *exec.Cmd) (*child, error) {
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	c := &child{cmd: cmd, exited: make(chan struct{})}
	live.Lock()
	live.m[c] = struct{}{}
	live.Unlock()
	go func() {
		c.err = cmd.Wait()
		live.Lock()
		delete(live.m, c)
		live.Unlock()
		close(c.exited)
	}()
	return c, nil
}

// kill stops the child and waits until it has ended.
func (c *child) kill() {
	_ = c.cmd.Process.Kill() // fails only if it already exited
	<-c.exited
}

// stopChildrenOnSignal makes SIGINT and SIGTERM kill every live child,
// wait for each to end, and exit non-zero without printing a result.
func stopChildrenOnSignal() {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		live.Lock()
		cs := make([]*child, 0, len(live.m))
		for c := range live.m {
			cs = append(cs, c)
		}
		live.Unlock()
		for _, c := range cs {
			_ = c.cmd.Process.Kill()
			select {
			case <-c.exited:
			case <-time.After(10 * time.Second):
			}
		}
		logf("interrupted; stopped %d child process(es)", len(cs))
		os.Exit(2)
	}()
}
