// Compile-time switch for the telemetry layer.
//
// The build defines AQUILA_TELEMETRY_ENABLED=0 when the CMake option
// AQUILA_TELEMETRY is OFF; hot-path recording (Counter::Add, ScopedTscTimer,
// TraceSpan) then compiles to nothing. The MetricsRegistry itself always
// exists so exposition call sites keep linking in either configuration.
#ifndef AQUILA_SRC_TELEMETRY_TELEMETRY_CONFIG_H_
#define AQUILA_SRC_TELEMETRY_TELEMETRY_CONFIG_H_

#ifndef AQUILA_TELEMETRY_ENABLED
#define AQUILA_TELEMETRY_ENABLED 1
#endif

// Wraps a statement that should vanish when telemetry is compiled out.
#if AQUILA_TELEMETRY_ENABLED
#define AQUILA_TELEMETRY_ONLY(stmt) stmt
#else
#define AQUILA_TELEMETRY_ONLY(stmt)
#endif

#endif  // AQUILA_SRC_TELEMETRY_TELEMETRY_CONFIG_H_
