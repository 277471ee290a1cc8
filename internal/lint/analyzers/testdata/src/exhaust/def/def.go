// Package def declares the exhaustively switched engine-kind enum.
package def

// Kind is a closed engine-kind registry.
//
//pclass:exhaustive
type Kind int

const (
	StrideBV Kind = iota
	TCAM
	Linear
	// numKinds is the unexported sentinel; switches outside this package
	// are not required to cover it.
	numKinds
)

// name switches inside the defining package, so every member counts —
// including the sentinel.
func name(k Kind) string {
	switch k { // want `switch over //pclass:exhaustive enum def\.Kind misses numKinds and has no panicking default case`
	case StrideBV:
		return "stridebv"
	case TCAM:
		return "tcam"
	case Linear:
		return "linear"
	}
	return ""
}

// nameOK covers the miss with a panicking default.
func nameOK(k Kind) string {
	switch k {
	case StrideBV:
		return "stridebv"
	case TCAM:
		return "tcam"
	case Linear:
		return "linear"
	default:
		panic("def: unknown kind")
	}
}

var _ = name
var _ = nameOK
var _ = numKinds
