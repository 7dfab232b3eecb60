package main

import (
	"errors"
	"fmt"
	"runtime"
	"syscall"
	"unsafe"
)

const (
	schedIdle          = 5 // SCHED_IDLE
	clockThreadCPUTime = 3 // CLOCK_THREAD_CPUTIME_ID
	cpuMaskWords       = 16
	cpuMaskBitsPerWord = 64
)

// allowedCPUs lists the CPUs this process may run on.
func allowedCPUs() ([]int, error) {
	var mask [cpuMaskWords]uint64
	_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask)))
	var cpus []int
	if errno != 0 { // a sandbox's doing: take the CPUs the runtime counted
		for cpu := 0; cpu < runtime.NumCPU(); cpu++ {
			cpus = append(cpus, cpu)
		}
		return cpus, nil
	}
	for w, bits := range mask {
		for b := 0; b < cpuMaskBitsPerWord; b++ {
			if bits&(1<<b) != 0 {
				cpus = append(cpus, w*cpuMaskBitsPerWord+b)
			}
		}
	}
	return cpus, nil
}

// pinIdle binds the calling thread to one CPU and moves it to SCHED_IDLE:
// it runs only when nothing else wants that CPU, and a waking server thread
// preempts it at once. Where a sandbox forbids one of the calls the probe
// goes on with what it got — unpinned, or merely at the lowest nice level —
// because a probe that costs the servers a per cent is worth more than no
// probe; the error says which.
func pinIdle(cpu int) error {
	var errs []error
	var mask [cpuMaskWords]uint64
	mask[cpu/cpuMaskBitsPerWord] = 1 << (cpu % cpuMaskBitsPerWord)
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask))); errno != 0 {
		errs = append(errs, fmt.Errorf("sched_setaffinity(cpu %d): %w", cpu, errno))
	}
	var param struct{ priority int32 }
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETSCHEDULER, 0, schedIdle, uintptr(unsafe.Pointer(&param))); errno != 0 {
		errs = append(errs, fmt.Errorf("sched_setscheduler(SCHED_IDLE): %w", errno))
		// On Linux the nice value is per thread: who = 0 is the caller.
		if err := syscall.Setpriority(syscall.PRIO_PROCESS, 0, 19); err != nil {
			errs = append(errs, fmt.Errorf("setpriority(19): %w", err))
		}
	}
	return errors.Join(errs...)
}

// threadCPUNanos is the CPU time the calling thread has used. Preemption
// does not count, which is what lets an idle-class thread time its work.
func threadCPUNanos() int64 {
	var ts syscall.Timespec
	syscall.RawSyscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0)
	return ts.Nano()
}
