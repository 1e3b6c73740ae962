//linttest:path repro/internal/fixture

// Known-bad inputs for the maporder rule: loops whose effect depends on
// Go's randomized map iteration order.
package fixture

import "slices"

type record struct {
	name string
	v    float64
}

func firstKey(m map[string]int) string {
	for k := range m { // want maporder
		return k
	}
	return ""
}

func unsortedCollect(m map[string]int) []string {
	var keys []string
	for k := range m { // want maporder
		keys = append(keys, k)
	}
	return keys // never sorted: emitted order is random
}

func searchedNotSorted(m map[string]int, want string) []string {
	var keys []string
	for k := range m { // want maporder
		keys = append(keys, k)
	}
	if slices.Contains(keys, want) { // a search, not a sort
		return keys
	}
	return nil
}

func floatAccumulate(m map[string]float64) float64 {
	sum := 0.0
	for _, v := range m { // want maporder
		sum += v // float addition is order-sensitive in the low bits
	}
	return sum
}

func breakOut(m map[string]int, stop int) int {
	found := 0
	for _, v := range m { // want maporder
		if v == stop {
			found = v
			break // which key wins depends on iteration order
		}
	}
	return found
}

func sideEffects(m map[string]*record, log func(string)) {
	for k := range m { // want maporder
		log(k)
	}
}
