/* Strip relaxation: the first 16 columns of every row relax toward
 * columns 16..31 of the same array, which no instance writes. The read
 * aliases the written storage at another cell, so the simulator cannot
 * batch the statement's rows through a tape (that would reorder an
 * aliased read and write) and runs them lane by lane; each tile-class
 * recording this meets is dropped and counted as
 * sim.recordings_invalidated.hazard in the profile's trace counters.
 *   dune exec bin/hextile.exe -- profile examples/strip2d.c
 */
float A[N][N];

for (t = 0; t < T; t++)
  for (i = 0; i < N; i++)
    for (j = 0; j < 16; j++)
      A[i][j] = 0.5f * (A[i][j] + A[i][j+16]);
