// Error handling: contract macros that throw typed exceptions.
//
// DASC_EXPECT(cond, msg)  -- precondition; throws dasc::InvalidArgument.
// DASC_ENSURE(cond, msg)  -- postcondition; throws dasc::InternalError.
//
// Both attach file:line so failures in deep pipelines are attributable.
#pragma once

#include <stdexcept>
#include <string>

namespace dasc {

/// Thrown when a caller violates a documented precondition.
class InvalidArgument : public std::invalid_argument {
 public:
  using std::invalid_argument::invalid_argument;
};

/// Thrown when an internal invariant is broken (a bug in this library).
class InternalError : public std::logic_error {
 public:
  using std::logic_error::logic_error;
};

/// Thrown for I/O failures (dataset files, DFS blocks).
class IoError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

namespace detail {
[[noreturn]] void throw_invalid_argument(const char* file, int line,
                                         const std::string& msg);
[[noreturn]] void throw_internal_error(const char* file, int line,
                                       const std::string& msg);
}  // namespace detail

}  // namespace dasc

#define DASC_EXPECT(cond, msg)                                         \
  do {                                                                 \
    if (!(cond)) {                                                     \
      ::dasc::detail::throw_invalid_argument(__FILE__, __LINE__, msg); \
    }                                                                  \
  } while (0)

#define DASC_ENSURE(cond, msg)                                       \
  do {                                                               \
    if (!(cond)) {                                                   \
      ::dasc::detail::throw_internal_error(__FILE__, __LINE__, msg); \
    }                                                                \
  } while (0)
