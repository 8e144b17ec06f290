package main

// expectedCounters are the simulated counters of every solve scenario at
// seeds 1 to 10, recorded when this benchmark was written. The paper's
// quantities must stay bit-identical, so a solve that departs from them
// fails its check; other seeds are checked against their first solve.
var expectedCounters = map[string]counters{
	// scenario: {rounds, messages, words, max node congestion, |Q|, h}
	"ring-n256-s1":  {429640, 8778788, 8778788, 51390, 40, 7},
	"ring-n256-s2":  {429640, 8778782, 8778782, 51390, 40, 7},
	"ring-n256-s3":  {429640, 8778512, 8778512, 51390, 40, 7},
	"ring-n256-s4":  {429640, 8778796, 8778796, 51390, 40, 7},
	"ring-n256-s5":  {429640, 8778788, 8778788, 51390, 40, 7},
	"ring-n256-s6":  {429641, 8778952, 8778952, 51390, 40, 7},
	"ring-n256-s7":  {429640, 8778962, 8778962, 51390, 40, 7},
	"ring-n256-s8":  {429640, 8779232, 8779232, 51390, 40, 7},
	"ring-n256-s9":  {429640, 8778736, 8778736, 51390, 40, 7},
	"ring-n256-s10": {429640, 8777650, 8777650, 51390, 40, 7},
	"star-n512-s1":  {32778, 3662848, 3662848, 1831935, 0, 8},
	"star-n512-s2":  {32778, 3662848, 3662848, 1831935, 0, 8},
	"star-n512-s3":  {32778, 3662848, 3662848, 1831935, 0, 8},
	"star-n512-s4":  {32778, 3662848, 3662848, 1831935, 0, 8},
	"star-n512-s5":  {32778, 3662848, 3662848, 1831935, 0, 8},
	"star-n512-s6":  {32778, 3662848, 3662848, 1831935, 0, 8},
	"star-n512-s7":  {32778, 3662848, 3662848, 1831935, 0, 8},
	"star-n512-s8":  {32778, 3662848, 3662848, 1831935, 0, 8},
	"star-n512-s9":  {32778, 3662848, 3662848, 1831935, 0, 8},
	"star-n512-s10": {32778, 3662848, 3662848, 1831935, 0, 8},
}
