//go:build linux

package main

import (
	"errors"
	"os"
	"strconv"
	"syscall"
	"unsafe"
)

// cpuMask is a sched_setaffinity(2) mask: bit c of word c/64 is CPU c.
type cpuMask [16]uint64

// getAffinity returns the calling thread's mask.
func getAffinity() (m cpuMask) {
	syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m)))
	return m
}

// startMask is the affinity the process was started with.
var startMask = getAffinity()

// setAffinityAll gives every thread of the process the mask. Threads the Go
// runtime starts later are cloned from one of these and inherit it; the second
// pass catches one started while the first was reading the list.
func setAffinityAll(m *cpuMask) error {
	var firstErr error
	for pass := 0; pass < 2; pass++ {
		tasks, err := os.ReadDir("/proc/self/task")
		if err != nil {
			return err
		}
		for _, t := range tasks {
			tid, err := strconv.Atoi(t.Name())
			if err != nil {
				continue
			}
			_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(*m), uintptr(unsafe.Pointer(m)))
			if errno != 0 && errno != syscall.ESRCH && firstErr == nil {
				firstErr = errno
			}
		}
	}
	return firstErr
}

// pinToOneCPU puts every thread on the first CPU the process may use.
func pinToOneCPU() (cpu int, err error) {
	for w, bits := range startMask {
		for b := 0; b < 64; b++ {
			if bits&(1<<b) != 0 {
				var one cpuMask
				one[w] = 1 << b
				return w*64 + b, setAffinityAll(&one)
			}
		}
	}
	return 0, errors.New("no CPU in the starting affinity mask")
}

func unpin() { setAffinityAll(&startMask) }
