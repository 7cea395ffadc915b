// Package mustclose is the golden fixture for the mustclose analyzer:
// handles leaked through an early return or the fall-through exit
// (flagged), and the deferred-release, per-path-release, and
// ownership-transfer shapes that must stay silent.
package mustclose

import (
	"os"

	sharon "github.com/sharon-project/sharon"
	"github.com/sharon-project/sharon/internal/persist"
)

// leakSystem leaks the one public system type on both returns past the
// constructor's error guard: a sharded run dropped without Close keeps
// its workers until the GC backstop runs.
func leakSystem(w sharon.Workload, stream sharon.Stream) error {
	sys, err := sharon.NewSystem(w, sharon.Options{Parallelism: 4})
	if err != nil {
		return err
	}
	if err := sys.FeedBatch(stream); err != nil {
		return err // want `return may leak sys opened at line \d+ without Close`
	}
	return sys.Flush() // want `return may leak sys opened at line \d+ without Close`
}

// closedSystem defers the release; Close is idempotent after Flush.
func closedSystem(w sharon.Workload, stream sharon.Stream) error {
	sys, err := sharon.NewSystem(w, sharon.Options{Parallelism: 4})
	if err != nil {
		return err
	}
	defer sys.Close()
	return sys.ProcessAll(stream)
}

// leakFile leaks f on the success return: the error-guard return is
// exempt (no handle exists when the constructor failed).
func leakFile(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	_ = f.Name()
	return nil // want `return may leak f opened at line \d+ without Close`
}

// closedFile defers the release right after the error check.
func closedFile(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return f.Sync()
}

// leakWAL leaks w through the fall-through exit.
func leakWAL(dir string) {
	w, err := persist.OpenWAL(dir, persist.WALOptions{}) // want `w is never released in leakWAL`
	if err != nil {
		return
	}
	_ = w.Sync()
}

// pathClosed releases on every path without defer: a Close between
// the constructor and each return satisfies the positional check.
func pathClosed(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	err = f.Sync()
	f.Close()
	return err
}

// transfer hands f to the caller: returning the handle moves
// ownership, so nothing is flagged here.
func transfer(path string) (*os.File, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	return f, nil
}
