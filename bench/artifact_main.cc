// The main of every paper-artifact binary; bench/CMakeLists.txt builds it
// once per binary with GRANULA_ARTIFACT set to the binary's name.

#include "bench/paper_numbers.h"

int main() { return granula::bench::PrintArtifact(GRANULA_ARTIFACT); }
