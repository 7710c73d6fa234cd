package main

import (
	"errors"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// lockEnv marks a child process whose parent already holds the lock.
const lockEnv = "REDREQ_BENCH_LOCKED"

// cleanup removes what the process left in outDir. It runs on normal
// return and from the signal handler, whichever comes first.
var cleanup struct {
	sync.Mutex
	paths []string
	child *os.Process
	// owner is set in the process that took the lock; no other run can
	// be alive beside it, so every state directory is its to remove.
	owner bool
}

func addCleanup(path string) {
	cleanup.Lock()
	cleanup.paths = append(cleanup.paths, path)
	cleanup.Unlock()
}

func runCleanup() {
	cleanup.Lock()
	child := cleanup.child
	cleanup.Unlock()
	if child != nil {
		// runChild's Wait reaps it and clears cleanup.child.
		child.Kill()
		for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(10 * time.Millisecond) {
			cleanup.Lock()
			gone := cleanup.child == nil
			cleanup.Unlock()
			if gone {
				break
			}
		}
	}
	cleanup.Lock()
	defer cleanup.Unlock()
	if cleanup.owner {
		removeStateDirs()
	}
	for _, p := range cleanup.paths {
		os.RemoveAll(p)
	}
	cleanup.paths = nil
}

// removeStateDirs deletes every workload state directory under outDir,
// including what a killed child or an earlier crashed run left.
func removeStateDirs() {
	dirs, _ := filepath.Glob(filepath.Join(outDir, "state-*"))
	for _, d := range dirs {
		os.RemoveAll(d)
	}
}

// acquireLock takes bench/out/lock for this process tree, so two
// benchmark runs never share a machine's two cores, and arranges for
// scratch directories and the lock to be removed on every exit path,
// SIGINT and SIGTERM included. A lock whose owner is gone is stale and
// is replaced; a live owner is an error.
func acquireLock() (release func(), err error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sigs
		runCleanup()
		os.Exit(130)
	}()
	if os.Getenv(lockEnv) != "" {
		return runCleanup, nil
	}
	lock := filepath.Join(outDir, "lock")
	for attempt := 0; ; attempt++ {
		f, err := os.OpenFile(lock, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
		if err == nil {
			fmt.Fprintln(f, os.Getpid())
			f.Close()
			addCleanup(lock)
			cleanup.owner = true
			removeStateDirs()
			os.Setenv(lockEnv, strconv.Itoa(os.Getpid()))
			return runCleanup, nil
		}
		if !errors.Is(err, os.ErrExist) || attempt > 0 {
			return nil, err
		}
		data, _ := os.ReadFile(lock)
		pid, perr := strconv.Atoi(strings.TrimSpace(string(data)))
		if perr == nil && syscall.Kill(pid, 0) == nil {
			return nil, fmt.Errorf("another benchmark run (pid %d) holds %s; wait for it or stop it", pid, lock)
		}
		os.Remove(lock)
	}
}

// scratchDir creates the workload's private state directory under
// outDir. It is inside the checkout on purpose: the benchmark writes
// nowhere else.
func scratchDir(workload string) (string, error) {
	dir, err := os.MkdirTemp(outDir, "state-"+workload+"-")
	if err != nil {
		return "", err
	}
	addCleanup(dir)
	return dir, nil
}

// runChild runs cmd to completion, registered so that a signal to this
// process stops it too.
func runChild(cmd *exec.Cmd) error {
	if err := cmd.Start(); err != nil {
		return err
	}
	cleanup.Lock()
	cleanup.child = cmd.Process
	cleanup.Unlock()
	err := cmd.Wait()
	cleanup.Lock()
	cleanup.child = nil
	cleanup.Unlock()
	return err
}
