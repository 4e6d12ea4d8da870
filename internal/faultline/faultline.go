package faultline

import (
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
	"sync"
	"time"

	"repro/internal/jsonfile"
)

// Op classifies the filesystem operations a rule can match.
type Op string

const (
	// OpOpen matches Open and OpenFile.
	OpOpen Op = "open"
	// OpRead matches File.Read, File.ReadAt and FS.ReadFile.
	OpRead Op = "read"
	// OpWrite matches File.Write.
	OpWrite Op = "write"
	// OpSync matches File.Sync.
	OpSync Op = "sync"
	// OpRename matches FS.Rename (the path filter tests the new path).
	OpRename Op = "rename"
	// OpRemove matches FS.Remove.
	OpRemove Op = "remove"
	// OpReadDir matches FS.ReadDir.
	OpReadDir Op = "readdir"
)

// Kind selects what a triggered rule does to the operation.
type Kind string

const (
	// Fail returns an injected error without performing the operation.
	// The default when a rule declares no kind.
	Fail Kind = "fail"
	// Short performs half of a write then reports an injected error —
	// the torn-append signature of a full disk or a crash mid-write.
	// On non-write operations it behaves like Fail.
	Short Kind = "short"
	// Flip performs a read then flips one deterministically chosen bit
	// of the returned data — silent media corruption. On non-read
	// operations it behaves like Fail.
	Flip Kind = "flip"
	// Torn applies to rename: it writes a truncated copy of the source
	// at the destination and reports an injected error, simulating a
	// torn rewrite that escaped the temp+rename discipline. On other
	// operations it behaves like Fail.
	Torn Kind = "torn"
	// Delay sleeps for the rule's delay, then performs the operation
	// normally — a slow device, not a broken one.
	Delay Kind = "delay"
)

// ErrInjected is wrapped by every error the injector fabricates.
var ErrInjected = errors.New("injected fault")

// File is the open-file surface the store consumes. *os.File satisfies
// it.
type File interface {
	io.Reader
	io.ReaderAt
	io.Writer
	io.Closer
	Sync() error
	Stat() (os.FileInfo, error)
}

// FS is the filesystem surface the store consumes. OS passes every
// call straight through; an Injector perturbs them per its plan.
type FS interface {
	MkdirAll(path string, perm os.FileMode) error
	ReadDir(path string) ([]os.DirEntry, error)
	ReadFile(path string) ([]byte, error)
	Open(path string) (File, error)
	OpenFile(path string, flag int, perm os.FileMode) (File, error)
	Rename(oldpath, newpath string) error
	Remove(path string) error
}

// OS is the passthrough FS over the real operating system.
type OS struct{}

func (OS) MkdirAll(path string, perm os.FileMode) error { return os.MkdirAll(path, perm) }
func (OS) ReadDir(path string) ([]os.DirEntry, error)   { return os.ReadDir(path) }
func (OS) ReadFile(path string) ([]byte, error)         { return os.ReadFile(path) }
func (OS) Open(path string) (File, error)               { return os.Open(path) }
func (OS) Rename(oldpath, newpath string) error         { return os.Rename(oldpath, newpath) }
func (OS) Remove(path string) error                     { return os.Remove(path) }
func (OS) OpenFile(path string, flag int, perm os.FileMode) (File, error) {
	return os.OpenFile(path, flag, perm)
}

// Rule is one declarative fault: which operations it matches (by class
// and path substring) and when and how it fires. Exactly one of Nth
// (fire on the Nth matching operation, 1-based) or Prob (fire on each
// matching operation with this probability, drawn deterministically
// from the plan seed) selects the trigger.
type Rule struct {
	// Op is the operation class the rule matches; required.
	Op Op `json:"op"`
	// Path, when non-empty, restricts the rule to operations whose path
	// contains it as a substring.
	Path string `json:"path,omitempty"`
	// Nth fires the rule on exactly the Nth matching operation
	// (1-based). Exclusive with Prob.
	Nth int `json:"nth,omitempty"`
	// Prob fires the rule on each matching operation with this
	// probability in (0,1]. Exclusive with Nth.
	Prob float64 `json:"prob,omitempty"`
	// Kind is what the rule does when it fires; empty means fail.
	Kind Kind `json:"kind,omitempty"`
	// DelayMs is the added latency for kind "delay", in milliseconds.
	DelayMs float64 `json:"delay_ms,omitempty"`
}

// Plan is a declarative fault schedule: a seed plus an ordered rule
// list. The zero plan injects nothing.
type Plan struct {
	Seed  uint64 `json:"seed,omitempty"`
	Rules []Rule `json:"rules"`
}

func validOp(op Op) bool {
	switch op {
	case OpOpen, OpRead, OpWrite, OpSync, OpRename, OpRemove, OpReadDir:
		return true
	}
	return false
}

func validKind(k Kind) bool {
	switch k {
	case "", Fail, Short, Flip, Torn, Delay:
		return true
	}
	return false
}

// Validate checks the plan's rules.
func (p Plan) Validate() error {
	for i, r := range p.Rules {
		if !validOp(r.Op) {
			return fmt.Errorf("faultline: rules[%d]: unknown op %q (have open|read|write|sync|rename|remove|readdir)", i, r.Op)
		}
		if !validKind(r.Kind) {
			return fmt.Errorf("faultline: rules[%d]: unknown kind %q (have fail|short|flip|torn|delay)", i, r.Kind)
		}
		switch {
		case r.Nth < 0:
			return fmt.Errorf("faultline: rules[%d]: negative nth %d", i, r.Nth)
		case r.Nth > 0 && r.Prob != 0:
			return fmt.Errorf("faultline: rules[%d]: nth and prob are exclusive", i)
		case r.Nth == 0 && (r.Prob <= 0 || r.Prob > 1):
			return fmt.Errorf("faultline: rules[%d]: prob %v out of (0,1] (or set nth)", i, r.Prob)
		}
		if r.DelayMs < 0 {
			return fmt.Errorf("faultline: rules[%d]: negative delay_ms %v", i, r.DelayMs)
		}
		if r.Kind == Delay && r.DelayMs == 0 {
			return fmt.Errorf("faultline: rules[%d]: kind delay needs delay_ms", i)
		}
	}
	return nil
}

// ParsePlan decodes and validates a fault plan from file bytes. It
// decodes through internal/jsonfile, the codec of scenario and traffic
// specs: unknown fields and trailing data are rejected, and src names
// the source (a path) so decode errors read src:line:col.
func ParsePlan(data []byte, src string) (Plan, error) {
	var p Plan
	if err := jsonfile.Decode(data, src, &p); err != nil {
		return Plan{}, err
	}
	if err := p.Validate(); err != nil {
		return Plan{}, fmt.Errorf("%s: %w", src, err)
	}
	return p, nil
}

// LoadPlan reads and parses a fault plan file.
func LoadPlan(path string) (Plan, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Plan{}, fmt.Errorf("faultline: %w", err)
	}
	return ParsePlan(data, path)
}

// Event records one injected fault, in injection order.
type Event struct {
	Op   Op     // the perturbed operation
	Path string // the operation's path
	Rule int    // index of the rule that fired
	N    uint64 // the rule's matching-operation ordinal (1-based)
	Kind Kind   // what was done
}

// Injector wraps a base FS and perturbs operations per its plan. Safe
// for concurrent use. Construct with New.
type Injector struct {
	plan Plan
	base FS

	mu     sync.Mutex
	counts []uint64
	events []Event
	sleep  func(time.Duration) // swapped in tests
}

// New builds an injector over the real OS. The plan should be
// Validate-clean; invalid trigger fields inject nothing.
func New(plan Plan) *Injector { return NewOver(plan, OS{}) }

// NewOver builds an injector over an arbitrary base FS (injectors
// compose, and tests can stack one over an in-memory FS).
func NewOver(plan Plan, base FS) *Injector {
	return &Injector{plan: plan, base: base, counts: make([]uint64, len(plan.Rules)), sleep: time.Sleep}
}

// Events returns a copy of the injected-fault log, in injection order.
// With a single-threaded caller the log is exactly reproducible from
// the plan; under concurrency the set of (rule, N) decisions still is,
// only their interleaving varies.
func (in *Injector) Events() []Event {
	in.mu.Lock()
	defer in.mu.Unlock()
	return append([]Event(nil), in.events...)
}

// splitmix64 advances x and returns the next output of the splitmix64
// sequence — the same expansion xrand uses for seeding.
func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// draw returns the deterministic uniform [0,1) value for the Nth match
// of rule i: a pure function of (seed, i, n), independent of every
// other rule and operation.
func (p Plan) draw(i int, n uint64) float64 {
	x := p.Seed ^ (uint64(i)+1)*0x9e3779b97f4a7c15
	x ^= n * 0xbf58476d1ce4e5b9
	v := splitmix64(&x)
	return float64(v>>11) * (1.0 / (1 << 53))
}

// decision is the outcome of matching one operation against the plan.
type decision struct {
	fire  bool
	kind  Kind
	rule  int
	n     uint64
	delay time.Duration
	salt  uint64 // deterministic bits for flip targeting
}

// decide matches one operation against every rule in order; the first
// rule that fires wins. Matching advances each matching rule's ordinal
// counter whether or not it fires, so rule triggers stay independent.
func (in *Injector) decide(op Op, path string) decision {
	if len(in.plan.Rules) == 0 {
		return decision{}
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	var d decision
	for i, r := range in.plan.Rules {
		if r.Op != op {
			continue
		}
		if r.Path != "" && !strings.Contains(path, r.Path) {
			continue
		}
		in.counts[i]++
		n := in.counts[i]
		if d.fire {
			continue // a prior rule already fired; still count the match
		}
		fire := false
		switch {
		case r.Nth > 0:
			fire = n == uint64(r.Nth)
		case r.Prob > 0:
			fire = in.plan.draw(i, n) < r.Prob
		}
		if !fire {
			continue
		}
		kind := r.Kind
		if kind == "" {
			kind = Fail
		}
		x := in.plan.Seed ^ uint64(i)<<32 ^ n
		d = decision{
			fire:  true,
			kind:  kind,
			rule:  i,
			n:     n,
			delay: time.Duration(r.DelayMs * float64(time.Millisecond)),
			salt:  splitmix64(&x),
		}
		in.events = append(in.events, Event{Op: op, Path: path, Rule: i, N: n, Kind: kind})
	}
	return d
}

// errInjected fabricates the error for a fired rule.
func errInjected(d decision, op Op, path string) error {
	return fmt.Errorf("faultline: rule %d (op %d of %s %s): %w", d.rule, d.n, op, path, ErrInjected)
}

func (in *Injector) MkdirAll(path string, perm os.FileMode) error {
	return in.base.MkdirAll(path, perm)
}

func (in *Injector) ReadDir(path string) ([]os.DirEntry, error) {
	d := in.decide(OpReadDir, path)
	if d.fire {
		if d.kind == Delay {
			in.sleep(d.delay)
		} else {
			return nil, errInjected(d, OpReadDir, path)
		}
	}
	return in.base.ReadDir(path)
}

func (in *Injector) ReadFile(path string) ([]byte, error) {
	d := in.decide(OpRead, path)
	if d.fire {
		switch d.kind {
		case Delay:
			in.sleep(d.delay)
		case Flip:
			data, err := in.base.ReadFile(path)
			if err == nil && len(data) > 0 {
				flipBit(data, d.salt)
			}
			return data, err
		default:
			return nil, errInjected(d, OpRead, path)
		}
	}
	return in.base.ReadFile(path)
}

func (in *Injector) Open(path string) (File, error) {
	d := in.decide(OpOpen, path)
	if d.fire {
		if d.kind == Delay {
			in.sleep(d.delay)
		} else {
			return nil, errInjected(d, OpOpen, path)
		}
	}
	f, err := in.base.Open(path)
	if err != nil {
		return nil, err
	}
	return &file{f: f, in: in, path: path}, nil
}

func (in *Injector) OpenFile(path string, flag int, perm os.FileMode) (File, error) {
	d := in.decide(OpOpen, path)
	if d.fire {
		if d.kind == Delay {
			in.sleep(d.delay)
		} else {
			return nil, errInjected(d, OpOpen, path)
		}
	}
	f, err := in.base.OpenFile(path, flag, perm)
	if err != nil {
		return nil, err
	}
	return &file{f: f, in: in, path: path}, nil
}

func (in *Injector) Rename(oldpath, newpath string) error {
	d := in.decide(OpRename, newpath)
	if d.fire {
		switch d.kind {
		case Delay:
			in.sleep(d.delay)
		case Torn:
			// Simulate a torn rewrite: a truncated copy of the source
			// lands at the destination and the operation reports failure.
			if data, err := in.base.ReadFile(oldpath); err == nil {
				if f, err := in.base.OpenFile(newpath, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644); err == nil {
					f.Write(data[:len(data)/2])
					f.Close()
				}
			}
			return errInjected(d, OpRename, newpath)
		default:
			return errInjected(d, OpRename, newpath)
		}
	}
	return in.base.Rename(oldpath, newpath)
}

func (in *Injector) Remove(path string) error {
	d := in.decide(OpRemove, path)
	if d.fire {
		if d.kind == Delay {
			in.sleep(d.delay)
		} else {
			return errInjected(d, OpRemove, path)
		}
	}
	return in.base.Remove(path)
}

// flipBit flips one bit of data, chosen deterministically from salt.
func flipBit(data []byte, salt uint64) {
	if len(data) == 0 {
		return
	}
	at := salt % uint64(len(data))
	data[at] ^= 1 << ((salt >> 32) % 8)
}

// file wraps an open file so reads, writes and syncs pass through the
// injector's plan.
type file struct {
	f    File
	in   *Injector
	path string
}

func (f *file) Read(p []byte) (int, error) {
	d := f.in.decide(OpRead, f.path)
	if d.fire {
		switch d.kind {
		case Delay:
			f.in.sleep(d.delay)
		case Flip:
			n, err := f.f.Read(p)
			if n > 0 {
				flipBit(p[:n], d.salt)
			}
			return n, err
		default:
			return 0, errInjected(d, OpRead, f.path)
		}
	}
	return f.f.Read(p)
}

func (f *file) ReadAt(p []byte, off int64) (int, error) {
	d := f.in.decide(OpRead, f.path)
	if d.fire {
		switch d.kind {
		case Delay:
			f.in.sleep(d.delay)
		case Flip:
			n, err := f.f.ReadAt(p, off)
			if n > 0 {
				flipBit(p[:n], d.salt)
			}
			return n, err
		default:
			return 0, errInjected(d, OpRead, f.path)
		}
	}
	return f.f.ReadAt(p, off)
}

func (f *file) Write(p []byte) (int, error) {
	d := f.in.decide(OpWrite, f.path)
	if d.fire {
		switch d.kind {
		case Delay:
			f.in.sleep(d.delay)
		case Short:
			n, _ := f.f.Write(p[:len(p)/2])
			return n, errInjected(d, OpWrite, f.path)
		default:
			return 0, errInjected(d, OpWrite, f.path)
		}
	}
	return f.f.Write(p)
}

func (f *file) Sync() error {
	d := f.in.decide(OpSync, f.path)
	if d.fire {
		if d.kind == Delay {
			f.in.sleep(d.delay)
		} else {
			return errInjected(d, OpSync, f.path)
		}
	}
	return f.f.Sync()
}

func (f *file) Close() error               { return f.f.Close() }
func (f *file) Stat() (os.FileInfo, error) { return f.f.Stat() }
