package main

import (
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"syscall"
	"time"
	"unsafe"
)

// sleepFor blocks the calling thread in nanosleep(2). The runtime's own
// timers round a sub-millisecond wait up to 1 ms when the process is
// idle (the netpoller's granularity), which would make an open-loop
// generator up to a millisecond late on every arrival; the kernel's
// timer is good to tens of microseconds.
func sleepFor(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	_ = syscall.Nanosleep(&ts, nil) // an early EINTR wake only makes the caller re-check the clock
}

// processCPU is the user+system CPU time the process has used.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// deviceID names the device backing path: the fsync serialization
// domain of everything stored under it.
func deviceID(path string) string {
	fi, err := os.Stat(path)
	if err != nil {
		return "unknown"
	}
	st, ok := fi.Sys().(*syscall.Stat_t)
	if !ok {
		return "unknown"
	}
	return fmt.Sprintf("dev-%d", st.Dev)
}

// schedIdle is Linux's SCHED_IDLE policy: a thread under it runs only
// when no other thread wants the CPU.
const schedIdle = 5

// spinIdle is what a spinner child does: it puts itself under SCHED_IDLE
// and burns the CPU until its parent is gone (the parent kills it when
// the run ends; the check covers a parent that was killed itself).
func spinIdle() {
	runtime.LockOSThread()
	var param struct{ priority int32 }
	if _, _, errno := syscall.Syscall(syscall.SYS_SCHED_SETSCHEDULER, 0, schedIdle, uintptr(unsafe.Pointer(&param))); errno != 0 {
		// Without the idle class a spinner would take a CPU from the
		// system under test; the lowest nice value is the next best.
		if err := syscall.Setpriority(syscall.PRIO_PROCESS, 0, 19); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark: spinner cannot lower its priority:", err)
			os.Exit(1)
		}
	}
	parent := os.Getppid()
	for os.Getppid() == parent {
		for i := 0; i < 1<<22; i++ {
			spinSink++
		}
	}
}

var spinSink uint64

// startSpinners starts one spinner child per CPU and returns the function
// that stops them and waits for each to end. The box is a shared VM: when
// a vCPU goes idle the host takes the core away, and getting it back
// (and back up to speed) costs the next request tens to hundreds of
// microseconds, by an amount that changes from minute to minute with
// what the host's other tenants do. A workload that keeps the box one to
// two thirds busy idles thousands of times a second, and its CPU cost per
// operation then spreads by 30 % between back-to-back runs; with the
// vCPUs kept busy by threads that yield to everything, by 5 % (AA.md).
// It is what idle=poll does on a machine one owns.
func startSpinners() (stop func(), err error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var children []*exec.Cmd
	stop = func() {
		for _, c := range children {
			_ = c.Process.Kill() // the only error is that it has exited already
			_ = c.Wait()         // reports the kill
		}
	}
	for i := 0; i < runtime.NumCPU(); i++ {
		c := exec.Command(exe, "-spin")
		c.Env = append(os.Environ(), "GOMAXPROCS=1")
		c.Stderr = os.Stderr
		if err := c.Start(); err != nil {
			stop()
			return nil, err
		}
		children = append(children, c)
	}
	return stop, nil
}
