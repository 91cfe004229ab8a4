// Fixture for the deadcode analyzer. A main package is policed even when
// linted alone, since nothing imports it. Each function below is reached
// in a different way, except the two marked want.
package main

import "fmt"

func main() {
	reached()
	fmt.Println(stringer{})
}

// reached is called from main.
func reached() { run(viaValue) }

// run calls whatever it is handed.
func run(fn func()) { fn() }

// viaValue is never called by name, only passed as a value.
func viaValue() {}

// hooks names fromInitialiser in a package-level initialiser.
var hooks = []func(){fromInitialiser}

func fromInitialiser() {}

// stringer's String is called by fmt through fmt.Stringer.
type stringer struct{}

func (stringer) String() string { return "stringer" }

// area is called only through the shape interface.
type shape interface{ area() int }

type square struct{}

func (square) area() int { return 1 }

func init() {
	var s shape = square{}
	_ = s.area()
}

func unreached() {} // want `unreached is reached by no main`

type orphan struct{}

func (orphan) method() {} // want `orphan\.method is reached by no main`

// hook is kept for a test by a pragma.
//
//hive:lint-ignore deadcode fixture: a test hook another package's tests call
func hook() {}
