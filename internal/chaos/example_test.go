package chaos_test

import (
	"fmt"

	"see/internal/chaos"
)

// ExampleParseSpec shows the compact fault-spec grammar round-tripping
// through its parser: the String form is itself a valid spec.
func ExampleParseSpec() {
	plan, err := chaos.ParseSpec("seed=7;node=3@2-5;link=10@1-;decohere=0.02")
	if err != nil {
		panic(err)
	}
	fmt.Println(plan)
	fmt.Println("zero plan:", plan.IsZero())

	again, err := chaos.ParseSpec(plan.String())
	if err != nil {
		panic(err)
	}
	fmt.Println("round-trips:", again.String() == plan.String())
	// Output:
	// seed=7;node=3@2-5;link=10@1-;decohere=0.02
	// zero plan: false
	// round-trips: true
}
