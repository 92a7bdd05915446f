# Layering check: dependencies between src/ modules run one way, down the
# layer order of DESIGN.md §1.
#
#   cmake -DPTS_SRC=<repo>/src -P tests/check_layering.cmake
#
# A file under src/<m>/ may include headers of its own module and of any
# module ranked before <m> below. Including a module ranked at or after <m>
# (an upward or sideways edge), or a module missing from the order, fails
# the check with one line per offending include.
cmake_minimum_required(VERSION 3.20)

set(PTS_LAYER_ORDER
    support pvm netlist placement timing cost tabu baselines parallel solver
    experiments service)

if(NOT PTS_SRC OR NOT IS_DIRECTORY "${PTS_SRC}")
  message(FATAL_ERROR "check_layering: pass -DPTS_SRC=<path to src/>")
endif()

file(GLOB_RECURSE sources RELATIVE "${PTS_SRC}" "${PTS_SRC}/*.hpp"
     "${PTS_SRC}/*.cpp")
list(SORT sources)

set(violations "")
set(edges 0)
foreach(source IN LISTS sources)
  string(REGEX MATCH "^[^/]+" module "${source}")
  list(FIND PTS_LAYER_ORDER "${module}" rank)
  if(rank EQUAL -1)
    string(APPEND violations "  ${source}: module '${module}' has no layer\n")
    continue()
  endif()
  file(STRINGS "${PTS_SRC}/${source}" includes
       REGEX "^[ \t]*#[ \t]*include[ \t]*\"[^\"/]+/")
  foreach(line IN LISTS includes)
    string(REGEX REPLACE "^[ \t]*#[ \t]*include[ \t]*\"([^\"/]+)/.*" "\\1"
           target "${line}")
    if(target STREQUAL module)
      continue()
    endif()
    math(EXPR edges "${edges} + 1")
    list(FIND PTS_LAYER_ORDER "${target}" target_rank)
    if(target_rank EQUAL -1 OR NOT target_rank LESS rank)
      string(APPEND violations "  ${source}: ${module} -> ${target}\n")
    endif()
  endforeach()
endforeach()

if(violations)
  list(JOIN PTS_LAYER_ORDER " < " order)
  message(FATAL_ERROR
          "check_layering: includes against the layer order (${order}):\n"
          "${violations}")
endif()
list(LENGTH sources files)
message(STATUS "check_layering: ${files} files, ${edges} cross-module "
               "includes, all downward")
