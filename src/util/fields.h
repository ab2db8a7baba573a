// Field lists for flat counter structs. A struct whose members are all
// uint64_t declares them once, as `static constexpr uint64_t T::*kFields[]`,
// followed by `static_assert(FieldListCovers<T>())` so a member added
// without a list entry fails the build. Segment arithmetic, the
// EngineResult codec and the RSS1 engine section all walk that list.
#ifndef REVNIC_UTIL_FIELDS_H_
#define REVNIC_UTIL_FIELDS_H_

#include <cstddef>
#include <cstdint>
#include <iterator>

namespace revnic {

// True when T's field list names every member; `unlisted` counts uint64_t
// members that are deliberately left out of the list (derived values).
template <typename T>
constexpr bool FieldListCovers(size_t unlisted = 0) {
  return sizeof(T) == (std::size(T::kFields) + unlisted) * sizeof(uint64_t);
}

template <typename T>
T& AddFields(T& into, const T& o) {
  for (uint64_t T::*f : T::kFields) {
    into.*f += o.*f;
  }
  return into;
}

template <typename T>
T& SubtractFields(T& into, const T& o) {
  for (uint64_t T::*f : T::kFields) {
    into.*f -= o.*f;
  }
  return into;
}

}  // namespace revnic

#endif  // REVNIC_UTIL_FIELDS_H_
