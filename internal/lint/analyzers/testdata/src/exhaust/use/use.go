// Package use switches over def's exhaustive enum from outside the
// defining package.
package use

import "exhaust/def"

// width misses an exported member and its default does not panic.
func width(k def.Kind) int {
	switch k {
	case def.StrideBV:
		return 4
	case def.TCAM:
		return 1
	default: // want `default case of a non-exhaustive switch over //pclass:exhaustive enum def\.Kind \(missing Linear\) must panic`
		return 0
	}
}

// widthOK covers every exported member; the unexported sentinel numKinds
// is not required outside the defining package.
func widthOK(k def.Kind) int {
	switch k {
	case def.StrideBV:
		return 4
	case def.TCAM:
		return 1
	case def.Linear:
		return 0
	}
	return -1
}

// widthAllowed is the sanctioned escape.
func widthAllowed(k def.Kind) int {
	//pclass:allow-exhaustive prototype tool, misses are impossible here
	switch k {
	case def.StrideBV:
		return 4
	}
	return 0
}

var _ = width
var _ = widthOK
var _ = widthAllowed
