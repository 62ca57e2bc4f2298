//go:build race

package experiments

// raceEnabled reports a -race build, where TestFiguresGolden takes over a
// minute.
const raceEnabled = true
