package stridebv

// RaceEnabled lets the external test package scale its tables down under
// the race detector.
const RaceEnabled = raceEnabled
