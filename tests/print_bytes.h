// gtest names each case of a value-parameterized test after its printed
// parameter, and its default printer dumps the object bytes, padding
// included, which hold whatever the stack held.  A test's PrintTo copies
// the fields into a zeroed buffer and prints that buffer here, in gtest's
// own format, so the case names are stable from build to build.

#ifndef TESTS_PRINT_BYTES_H_
#define TESTS_PRINT_BYTES_H_

#include <cstddef>
#include <cstdio>
#include <ostream>

namespace faas {

// Prints "<n>-byte object <00-01 02-03 ...>" as gtest does.
inline void PrintObjectBytes(const unsigned char* bytes, size_t n,
                             std::ostream* os) {
  *os << n << "-byte object <";
  for (size_t i = 0; i < n; ++i) {
    if (i != 0) {
      *os << (i % 2 == 0 ? ' ' : '-');
    }
    char hex[3];
    std::snprintf(hex, sizeof hex, "%02X", bytes[i]);
    *os << hex;
  }
  *os << '>';
}

}  // namespace faas

#endif  // TESTS_PRINT_BYTES_H_
