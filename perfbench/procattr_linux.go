package main

import "syscall"

// childAttr makes the kernel kill a server process if the benchmark itself
// dies, so no run leaves a server holding the fixed ports.
func childAttr() *syscall.SysProcAttr {
	return &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}
