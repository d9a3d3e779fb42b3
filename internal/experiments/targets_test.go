package experiments

import (
	"strings"
	"testing"
	"unsafe"

	"surw/internal/racebench"
	"surw/internal/sched"
)

// closure is the closure object behind a func value, as sched's progKey
// reads it to recognise a warm pool's program. reflect.Value.Pointer would
// return the code pointer, equal for every closure of one function literal.
func closure(prog func(*sched.Thread)) uintptr {
	return uintptr(*(*unsafe.Pointer)(unsafe.Pointer(&prog)))
}

// TestByNameResolvesOneProgram: a name means one program — every concrete
// name Names lists, and a member of each parametric family, resolves to a
// target of that name whose Prog is the same closure object on every call,
// so a fleet worker's warm pool keeps what it learnt of the program from
// one lease to the next.
func TestByNameResolvesOneProgram(t *testing.T) {
	names := []string{"LightFTP@98", "Fig1/bitshift_5"}
	for _, name := range Names() {
		if !strings.Contains(name, "<") {
			names = append(names, name)
		}
	}
	for _, name := range names {
		first, ok := ByName(name)
		if !ok || first.Name != name {
			t.Fatalf("ByName(%q) = %q, %v", name, first.Name, ok)
		}
		again, _ := ByName(name)
		if closure(first.Prog) != closure(again.Prog) {
			t.Errorf("ByName(%q) built its program a second time", name)
		}
	}
	for _, b := range racebench.Suite() {
		tgt, _ := ByName(b.Target().Name)
		if closure(tgt.Prog) != closure(b.Target().Prog) || tgt.MaxSteps != b.Target().MaxSteps {
			t.Errorf("ByName(%q) is not the suite's target", b.Target().Name)
		}
	}
	for _, name := range []string{"", "blackscholes", "RaceBench/", "RaceBench/nope", "LightFTP@x", "LightFTP@098",
		"bitshift_5", "Fig1/bitshift_0", "Fig1/bitshift_32", "Fig1/bitshift_05", "Fig1/bitshift_<k>"} {
		if _, ok := ByName(name); ok {
			t.Errorf("ByName(%q) resolved", name)
		}
	}
}
